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
	pin := c.Pin
	if pin == PinDefault {
		if c.Mode == IMPACC {
			pin = PinNear
		} else {
			pin = PinNone
		}
	}
	w("pin", strconv.Itoa(int(pin)))
	// Message fusion is not a feature but the IMPACC transport itself; its
	// entry keeps the encoding (and every digest) of the v2 scheme.
	f := c.features()
	w("features", fmt.Sprintf("fusion=%t aliasing=%t directp2p=%t rdma=%t unifiedqueue=%t",
		c.Mode == IMPACC, f.Aliasing, f.DirectP2P, f.RDMA, f.UnifiedQueue))
	w("overheads", fmt.Sprintf("cmd=%d handler=%d alias=%d", msg.CmdOverhead, msg.HandlerOverhead, msg.AliasOverhead))
	w("backed", strconv.FormatBool(c.Backed))
	w("seed", strconv.FormatUint(c.Seed, 10))
	w("maxtasks", strconv.Itoa(c.MaxTasks))
	w("forceserialmpi", strconv.FormatBool(c.ForceSerialMPI))
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

// systemDigest content-addresses the topology through its JSON encoding.
// topo.System is plain nested structs (no maps, no pointers), so
// encoding/json emits fields in declaration order and the bytes are
// deterministic. The encoding streams into the hash; the digest is that of
// json.Marshal's bytes, without the newline the encoder appends.
func systemDigest(sys *topo.System) string {
	if sys == nil {
		return "nil"
	}
	h := &withoutLast{h: sha256.New()}
	if err := json.NewEncoder(h).Encode(sys); err != nil {
		// A value type of plain structs and slices cannot fail to marshal.
		panic(fmt.Sprintf("core: topology marshal: %v", err))
	}
	return hex.EncodeToString(h.h.Sum(nil))
}

// withoutLast writes to h everything written to it but the last byte.
type withoutLast struct {
	h    hash.Hash
	last [1]byte
	held bool
}

func (w *withoutLast) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if w.held {
		w.h.Write(w.last[:])
	}
	w.h.Write(p[:len(p)-1])
	w.last[0], w.held = p[len(p)-1], true
	return len(p), nil
}
