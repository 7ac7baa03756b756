package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
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

// configFieldPaths names every field of t by its path from Config,
// descending into the nested Limits and *Features structs.
func configFieldPaths(t reflect.Type, prefix string) []string {
	var paths []string
	for i := range t.NumField() {
		f := t.Field(i)
		ft := f.Type
		if ft == reflect.TypeOf(&Features{}) {
			ft = ft.Elem()
		}
		if ft == reflect.TypeOf(Limits{}) || ft == reflect.TypeOf(Features{}) {
			paths = append(paths, configFieldPaths(ft, prefix+f.Name+".")...)
		} else {
			paths = append(paths, prefix+f.Name)
		}
	}
	return paths
}

// TestConfigHashSensitivity keeps the content address complete: a walk of
// Config by reflection must name exactly the mutators and observers below,
// so a new field fails until it gets one. Every mutator moves the hash to
// a digest of its own, and no observer moves it.
func TestConfigHashSensitivity(t *testing.T) {
	features := func(f func(*Features)) func(c *Config) {
		return func(c *Config) {
			ft := DefaultFeatures(c.Mode)
			f(&ft)
			c.Features = &ft
		}
	}
	mutators := map[string]func(c *Config){
		"System":                func(c *Config) { c.System = topo.Beacon(3) },
		"Mode":                  func(c *Config) { c.Mode = Legacy },
		"DeviceTypes":           func(c *Config) { c.DeviceTypes = topo.MaskOf(topo.XeonPhi) },
		"Pin":                   func(c *Config) { c.Pin = PinFar },
		"Features.Aliasing":     features(func(f *Features) { f.Aliasing = false }),
		"Features.DirectP2P":    features(func(f *Features) { f.DirectP2P = false }),
		"Features.RDMA":         features(func(f *Features) { f.RDMA = false }),
		"Features.UnifiedQueue": features(func(f *Features) { f.UnifiedQueue = false }),
		"Backed":                func(c *Config) { c.Backed = true },
		"Seed":                  func(c *Config) { c.Seed = 2017 },
		"MaxTasks":              func(c *Config) { c.MaxTasks = 3 },
		"JitterPct":             func(c *Config) { c.JitterPct = 2 },
		"Lean":                  func(c *Config) { c.Lean = true },
		"Chaos":                 func(c *Config) { c.Chaos, _ = fault.ParseSpec("1:straggle=*:2") },
		"Limits.MaxVirtualTime": func(c *Config) { c.Limits.MaxVirtualTime = 1000 },
		"Limits.MaxEvents":      func(c *Config) { c.Limits.MaxEvents = 1000 },
		"Limits.MaxAllocBytes":  func(c *Config) { c.Limits.MaxAllocBytes = 1000 },
	}
	observers := map[string]func(c *Config){
		"Trace":      func(c *Config) { c.Trace = NewTracer() },
		"Parallel":   func(c *Config) { c.Parallel = 8 },
		"Progress":   func(c *Config) { c.Progress = &Progress{Every: 1000, Emit: func(Heartbeat) {}} },
		"FlightRing": func(c *Config) { c.FlightRing = 64 },
	}
	var named []string
	for path := range mutators {
		named = append(named, path)
	}
	for path := range observers {
		named = append(named, path)
	}
	walked := configFieldPaths(reflect.TypeOf(Config{}), "")
	slices.Sort(named)
	slices.Sort(walked)
	if !slices.Equal(walked, named) {
		t.Fatalf("Config fields %v, but the mutators and observers name %v", walked, named)
	}
	base := Config{System: topo.Beacon(2), Seed: 2016}
	seen := map[string]string{base.Hash(): "base"}
	for _, path := range walked {
		c := base
		if observe, ok := observers[path]; ok {
			observe(&c)
			if c.Hash() != base.Hash() {
				t.Errorf("observer %s moved the hash", path)
			}
			continue
		}
		mutators[path](&c)
		h := c.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collides with %s", path, prev)
		}
		seen[h] = path
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
// from one node to a generated 1024-node torus, on every generated shape,
// and on a JSON-loaded system without a Topo whose names need escaping.
func TestSystemDigestMatchesMarshal(t *testing.T) {
	type named struct {
		name string
		sys  *topo.System
	}
	var systems []named
	for _, spec := range []string{"psg", "titan:512", "gemini:16,8,8", "beacon:3",
		"hetero", "fattree:4", "dragonfly:4,2,2", "titan:1"} {
		sys, err := topo.Preset(spec)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, named{spec, sys})
	}
	loaded, err := topo.LoadSystem(strings.NewReader(`{
	  "name": "mini <&> \"quoted\" é ", "mpiOverhead": 400,
	  "nodes": [{
	    "name": "n<0>&", "count": 2,
	    "sockets": [{"name": "cpu", "cores": 8, "gflopsDP": 300}],
	    "hostMemGBs": 10, "numaPenalty": 1,
	    "nic": {"name": "eth", "link": {"latency": 2000, "gbs": 1}},
	    "devices": [{"class": "nvidia", "name": "gpu0", "memoryGB": 8,
	      "gflopsDP": 1000, "gemmEff": 0.8, "memBWGBs": 200, "stencilEff": 0.5,
	      "kernelLaunch": 8000, "pcie": {"latency": 900, "gbs": 12}, "p2pGBs": 10}]
	  }]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Topo != nil {
		t.Fatal("loaded system has a Topo")
	}
	systems = append(systems, named{"json", loaded}, named{"no-nodes", &topo.System{Name: "x"}},
		named{"empty-nodes", &topo.System{Nodes: []topo.NodeSpec{}}})
	for _, s := range systems {
		data, err := json.Marshal(s.sys)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got, want := systemDigest(s.sys), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: systemDigest = %s, want %s", s.name, got, want)
		}
	}
}

// TestSystemDigestAllocBound: the digest encodes one node at a time, so
// hashing the 1024-node gemini:16,8,8 system allocates a few kilobytes,
// not a buffer grown to hold its 0.6 MB of JSON (2.1 MB of growth). Each
// run starts with encoding/json's buffer pool emptied by the collector, as
// a run of a large system usually finds it.
func TestSystemDigestAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, which moves allocation totals")
	}
	sys, err := topo.Preset("gemini:16,8,8")
	if err != nil {
		t.Fatal(err)
	}
	systemDigest(sys) // encoding/json's type cache
	var most uint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC() // twice: a pool keeps its items through one collection
		runtime.GC()
		runtime.ReadMemStats(&before)
		systemDigest(sys)
		runtime.ReadMemStats(&after)
		most = max(most, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("systemDigest(gemini:16,8,8) allocates up to %d B", most)
	if most >= 64<<10 {
		t.Errorf("systemDigest(gemini:16,8,8) allocates %d B, want under 64 KB", most)
	}
}
