package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"impacc/internal/fault"
	"impacc/internal/topo"
)

// hashSpecimens are the pinned (config, digest) pairs. The digests are the
// contract: any refactor that silently changes the canonical encoding —
// and therefore would silently split or poison a content-addressed result
// cache — fails this test. A deliberate encoding change must bump
// ConfigHashScheme and regenerate these values.
func hashSpecimens() []struct {
	name string
	cfg  Config
	want string
} {
	chaos, err := fault.ParseSpec("7:degrade=*:4:1ms,rdmaflap=1:2ms:500us,straggle=0:1.5,retries=6")
	if err != nil {
		panic(err)
	}
	return []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "beacon-defaults",
			cfg:  Config{System: topo.Beacon(2), Seed: 2016},
			want: "5778a21292d8f18c2428ac909cedadddb108271897db73656a0da208c67f4fd5",
		},
		{
			name: "titan-legacy-chaos-limits",
			cfg: Config{
				System:      topo.Titan(4),
				Mode:        Legacy,
				DeviceTypes: topo.MaskOf(topo.NVIDIAGPU),
				Pin:         PinFar,
				Backed:      true,
				Seed:        99,
				MaxTasks:    8,
				JitterPct:   1.5,
				Chaos:       chaos,
				Limits:      Limits{MaxVirtualTime: 2_000_000_000, MaxEvents: 1 << 20, MaxAllocBytes: 1 << 30},
			},
			want: "4e2883029c4b3d7f823e0de05b400f133ad82dc62df722bc0390ef1fb57b7ae6",
		},
	}
}

func TestConfigHashKnownAnswers(t *testing.T) {
	for _, s := range hashSpecimens() {
		if got := s.cfg.Hash(); got != s.want {
			t.Errorf("%s: hash drifted:\n got  %s\n want %s\ncanonical:\n%s",
				s.name, got, s.want, s.cfg.CanonicalString())
		}
	}
}

// TestConfigHashNormalization: hashing before and after validate() must
// agree (defaults are resolved inside CanonicalString), and observer-only
// pointers must not move the hash.
func TestConfigHashNormalization(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Seed: 2016}
	before := cfg.Hash()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if after := cfg.Hash(); after != before {
		t.Fatalf("validate() moved the hash: %s -> %s", before, after)
	}
	cfg.Trace = NewTracer()
	if got := cfg.Hash(); got != before {
		t.Fatal("observer pointer Trace moved the hash")
	}
}

// TestConfigHashSensitivity: every simulation-relevant field must move the
// hash.
func TestConfigHashSensitivity(t *testing.T) {
	base := Config{System: topo.Beacon(2), Seed: 2016}
	seen := map[string]string{base.Hash(): "base"}
	mutate := []struct {
		name string
		fn   func(c *Config)
	}{
		{"system", func(c *Config) { c.System = topo.Beacon(3) }},
		{"mode", func(c *Config) { c.Mode = Legacy }},
		{"devicetypes", func(c *Config) { c.DeviceTypes = topo.MaskOf(topo.XeonPhi) }},
		{"pin", func(c *Config) { c.Pin = PinFar }},
		{"features", func(c *Config) { c.Features = &Features{} }},
		{"backed", func(c *Config) { c.Backed = true }},
		{"seed", func(c *Config) { c.Seed = 2017 }},
		{"maxtasks", func(c *Config) { c.MaxTasks = 3 }},
		{"forceserialmpi", func(c *Config) { c.ForceSerialMPI = true }},
		{"jitterpct", func(c *Config) { c.JitterPct = 2 }},
		{"chaos", func(c *Config) { c.Chaos, _ = fault.ParseSpec("1:straggle=*:2") }},
		{"limits", func(c *Config) { c.Limits.MaxEvents = 1000 }},
		{"lean", func(c *Config) { c.Lean = true }},
	}
	for _, m := range mutate {
		c := base
		m.fn(&c)
		h := c.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collides with %s", m.name, prev)
		}
		seen[h] = m.name
	}
}

// TestConfigCanonicalStringShape: the encoding is line-oriented key=value
// with the scheme tag first, so diffs of two canonical strings localize
// which field diverged.
func TestConfigCanonicalStringShape(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Seed: 2016}
	s := cfg.CanonicalString()
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if lines[0] != "scheme="+ConfigHashScheme {
		t.Fatalf("first line %q, want scheme tag", lines[0])
	}
	order := []string{"scheme", "system", "mode", "devicetypes", "pin", "features",
		"overheads", "backed", "seed", "maxtasks", "forceserialmpi", "jitterpct", "chaos", "limits", "lean"}
	if len(lines) != len(order) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(order), s)
	}
	for i, k := range order {
		if !strings.HasPrefix(lines[i], k+"=") {
			t.Errorf("line %d = %q, want key %q", i, lines[i], k)
		}
	}
}

// TestSystemDigestMatchesMarshal pins the streamed topology digest to the
// SHA-256 of json.Marshal's bytes, the encoding it replaced, on presets
// from one node to a generated 1024-node torus.
func TestSystemDigestMatchesMarshal(t *testing.T) {
	for _, spec := range []string{"psg", "titan:512", "gemini:16,8,8", "beacon:3"} {
		sys, err := topo.Preset(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(sys)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got, want := systemDigest(sys), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: systemDigest = %s, want %s", spec, got, want)
		}
	}
}
