// Package serve turns the deterministic simulator into a job service:
// clients submit (topology, application, mode, seed, chaos) descriptions
// over HTTP/JSON, a bounded worker pool executes them, and a
// content-addressed cache returns byte-identical artifacts for repeated
// submissions without re-running anything.
//
// The cache is sound because runs are deterministic: the canonical encoding
// of a core.Config plus the program identity fully determines every output
// byte (report, profile, trace), so the SHA-256 of that encoding is a
// content address for the results. See DESIGN.md §11.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/topo"
)

// JobSpec is the wire form of one simulation request: the run grammar
// impacc-run shares (apps.Spec). Omitted fields take apps.Defaults, and the
// defaults are resolved before hashing so "iters omitted" and "iters: 10"
// are the same job.
type JobSpec = apps.Spec

// compiled is a JobSpec resolved against defaults and its system preset:
// the runnable configuration (observers unset; the worker attaches fresh
// ones per run), the program, and the job's content address.
type compiled struct {
	*apps.Run
	key string
}

// compile resolves spec into a compiled job or a client error. It is pure:
// the same spec always compiles to the same key.
func compile(spec JobSpec) (*compiled, error) {
	sys, err := topo.Preset(spec.System)
	if err != nil {
		return nil, err
	}
	run, err := apps.Compile(spec.WithDefaults(), sys)
	if err != nil {
		return nil, err
	}
	return &compiled{Run: run, key: jobKey(&run.Config, run.Identity)}, nil
}

// jobKey derives the content address: the canonical config digest joined
// with the program identity under one more SHA-256. Two specs get the same
// key if and only if they describe byte-identical runs.
func jobKey(cfg *core.Config, identity string) string {
	var b strings.Builder
	b.WriteString(cfg.Hash())
	b.WriteByte(0)
	b.WriteString(identity)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
