package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"
	"strings"

	"impacc/internal/msg"
	"impacc/internal/topo"
)

// ConfigHashScheme tags the canonical Config encoding. Every change to the
// meaning of the encoding (a new field, a changed default, a reordered
// line) must bump this tag, so content addresses derived from old encodings
// can never collide with new ones. TestConfigHashKnownAnswers pins the
// current scheme to known digests; if it fails after a refactor, either the
// refactor accidentally changed the encoding (fix the refactor) or it
// deliberately did (bump the tag and regenerate the digests).
const ConfigHashScheme = "impacc-cfg-v2"

// CanonicalString renders the configuration into a stable encoding with
// explicit field ordering: one "key=value" line per field, normalized
// exactly the way validate() normalizes a run (default pin policy and
// overheads resolved, feature set resolved through DefaultFeatures). Two
// configs produce identical canonical strings if and only if they describe
// byte-identical runs, which — runs being deterministic — makes the string
// a content address for the run's results.
//
// Observer-only fields (Trace, Progress, FlightRing) are
// deliberately excluded: they change what is recorded about a run, never
// the simulated bytes. Parallel is excluded for the same reason: the
// sharded engine produces byte-identical output for every worker count, so
// serial and parallel submissions of the same job share one content
// address.
func (c *Config) CanonicalString() string {
	var b strings.Builder
	w := func(k, v string) {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
		b.WriteByte('\n')
	}
	w("scheme", ConfigHashScheme)
	w("system", systemDigest(c.System))
	w("mode", c.Mode.String())
	w("devicetypes", strconv.FormatUint(uint64(c.DeviceTypes), 10))
	w("pin", strconv.Itoa(int(c.pin())))
	// Message fusion is not a feature but the IMPACC transport itself; its
	// entry keeps the encoding (and every digest) of the v2 scheme.
	f := c.features()
	w("features", fmt.Sprintf("fusion=%t aliasing=%t directp2p=%t rdma=%t unifiedqueue=%t",
		c.Mode == IMPACC, f.Aliasing, f.DirectP2P, f.RDMA, f.UnifiedQueue))
	w("overheads", fmt.Sprintf("cmd=%d handler=%d alias=%d", msg.CmdOverhead, msg.HandlerOverhead, msg.AliasOverhead))
	w("backed", strconv.FormatBool(c.Backed))
	w("seed", strconv.FormatUint(c.Seed, 10))
	w("maxtasks", strconv.Itoa(c.MaxTasks))
	// The serialized-MPI fallback is a property of the system (its
	// ThreadMultiple, already in the system digest); the constant entry
	// keeps the encoding, and every digest, of the v2 scheme.
	w("forceserialmpi", "false")
	w("jitterpct", strconv.FormatFloat(c.JitterPct, 'g', -1, 64))
	chaos := ""
	if c.Chaos != nil {
		chaos = c.Chaos.String() // canonical spec form, round-trips through ParseSpec
	}
	w("chaos", chaos)
	w("limits", fmt.Sprintf("vtime=%d events=%d alloc=%d",
		c.Limits.MaxVirtualTime, c.Limits.MaxEvents, c.Limits.MaxAllocBytes))
	// Lean changes what a big run reports (aggregated per-rank telemetry),
	// so unlike the pure observers it is part of the content address.
	w("lean", strconv.FormatBool(c.Lean))
	return b.String()
}

// Hash returns the hex SHA-256 digest of the canonical encoding — the
// content address under which a run's results may be cached and shared.
func (c *Config) Hash() string {
	sum := sha256.Sum256([]byte(c.CanonicalString()))
	return hex.EncodeToString(sum[:])
}

// systemDigest content-addresses the topology: the SHA-256 of its
// json.Marshal bytes. topo.System is plain nested structs (no maps), so
// encoding/json emits fields in declaration order and the bytes are
// deterministic. The digest writes the System's own fields itself and
// encodes one NodeSpec at a time into the hash, so encoding/json's buffer
// holds one node, never the whole system.
func systemDigest(sys *topo.System) string {
	if sys == nil {
		return "nil"
	}
	h := sha256.New()
	enc := json.NewEncoder(valueWriter{h})
	encode := func(v any) {
		if err := enc.Encode(v); err != nil {
			// Plain structs, slices and strings cannot fail to marshal.
			panic(fmt.Sprintf("core: topology marshal: %v", err))
		}
	}
	b := []byte(`{"Name":`)
	h.Write(b)
	encode(sys.Name)
	b = append(b[:0], `,"Nodes":`...)
	switch {
	case sys.Nodes == nil:
		b = append(b, "null"...)
	case len(sys.Nodes) == 0:
		b = append(b, "[]"...)
	default:
		sep := byte('[')
		for i := range sys.Nodes {
			h.Write(append(b, sep))
			b, sep = b[:0], ','
			encode(&sys.Nodes[i])
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"MPIOverhead":`...), int64(sys.MPIOverhead), 10)
	b = strconv.AppendBool(append(b, `,"ThreadMultiple":`...), sys.ThreadMultiple)
	h.Write(b)
	if sys.Topo != nil {
		h.Write([]byte(`,"Topo":`))
		encode(sys.Topo)
	}
	h.Write([]byte{'}'})
	return hex.EncodeToString(h.Sum(nil))
}

// valueWriter writes one encoded value to h without the newline that
// json.Encoder.Encode ends it with (and writes in one call).
type valueWriter struct{ h hash.Hash }

func (w valueWriter) Write(p []byte) (int, error) {
	w.h.Write(p[:len(p)-1])
	return len(p), nil
}
