package unused_test

import (
	"path/filepath"
	"testing"

	"impacc/internal/analysis/analysistest"
	"impacc/internal/analysis/unused"
)

func TestUnused(t *testing.T) {
	analysistest.Run(t, unused.Analyzer, filepath.Join("testdata", "a"))
}
