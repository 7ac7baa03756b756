// Package cli holds the bodies of the impacc-run and impacc-bench commands
// as in-process entry points: each takes its arguments and the writers that
// stand for stdout and stderr and returns the exit status, so one test can
// drive every command line and hash every byte it writes.
package cli

import (
	"cmp"
	"io"
	"os"
	"strings"

	"impacc/internal/telemetry"
)

// writeFile creates path and fills it with write. It returns the first
// error of the create, the write and the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return cmp.Or(write(f), f.Close())
}

// writeProfile stores a run or sweep profile at path: indented JSON when
// the path ends in .json, the human-readable table otherwise.
func writeProfile(path string, p interface {
	WriteJSON(io.Writer) error
	WriteText(io.Writer) error
}) error {
	if strings.HasSuffix(path, ".json") {
		return writeFile(path, p.WriteJSON)
	}
	return writeFile(path, p.WriteText)
}

// writeMetrics stores a telemetry snapshot at path: Prometheus text
// exposition when the path ends in .prom, indented JSON otherwise.
func writeMetrics(path string, s *telemetry.Snapshot) error {
	if strings.HasSuffix(path, ".prom") {
		return writeFile(path, s.WritePrometheus)
	}
	return writeFile(path, s.WriteJSON)
}
