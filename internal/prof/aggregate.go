package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"impacc/internal/sim"
)

// Aggregate folds the profiles of many runs (a benchmark sweep) into one
// summary. Add is commutative and associative, so runs folded in any
// completion order produce byte-identical snapshots. An Aggregate has no
// lock: whoever shares one across goroutines serializes Add and Snapshot.
type Aggregate struct {
	runs       int
	makespanNs int64 // summed across runs
	critNs     map[string]int64
	sites      map[[2]string]*Site
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{critNs: map[string]int64{}, sites: map[[2]string]*Site{}}
}

// Add folds one run's profile in.
func (a *Aggregate) Add(p *Profile) {
	if p == nil {
		return
	}
	a.runs++
	a.makespanNs += p.MakespanNs
	for k, v := range p.CritPath.ByKindNs {
		a.critNs[k] += v
	}
	for _, s := range p.Sites {
		k := [2]string{s.Kind, s.Name}
		t := a.sites[k]
		if t == nil {
			t = &Site{Kind: s.Kind, Name: s.Name}
			a.sites[k] = t
		}
		t.Count += s.Count
		t.TotalNs += s.TotalNs
		t.Bytes += s.Bytes
		if s.MaxNs > t.MaxNs {
			t.MaxNs = s.MaxNs
		}
		if s.Ranks > t.Ranks {
			t.Ranks = s.Ranks
		}
	}
}

// AggProfile is a deterministic snapshot of an Aggregate.
type AggProfile struct {
	Runs         int              `json:"runs"`
	MakespanNs   int64            `json:"makespan_ns"` // summed over runs
	CritPathNs   map[string]int64 `json:"critical_path_ns"`
	Sites        []Site           `json:"sites"`
	SitesOmitted int              `json:"sites_omitted,omitempty"`
}

// Snapshot materializes the aggregate with at most topN sites.
func (a *Aggregate) Snapshot(topN int) *AggProfile {
	ap := &AggProfile{Runs: a.runs, MakespanNs: a.makespanNs, CritPathNs: map[string]int64{}}
	for k, v := range a.critNs {
		ap.CritPathNs[k] = v
	}
	all := make([]Site, 0, len(a.sites))
	for _, s := range a.sites {
		cp := *s
		if cp.Count > 0 {
			cp.MeanNs = cp.TotalNs / cp.Count
		}
		all = append(all, cp)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].TotalNs != all[j].TotalNs {
			return all[i].TotalNs > all[j].TotalNs
		}
		if all[i].Kind != all[j].Kind {
			return all[i].Kind < all[j].Kind
		}
		return all[i].Name < all[j].Name
	})
	if topN > 0 && len(all) > topN {
		ap.SitesOmitted = len(all) - topN
		all = all[:topN]
	}
	ap.Sites = all
	return ap
}

// WriteJSON renders the aggregate snapshot as indented JSON.
func (ap *AggProfile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ap)
}

// WriteText renders the aggregate snapshot as a human-readable table.
func (ap *AggProfile) WriteText(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("IMPACC aggregate profile: %d runs, %v total virtual time\n",
		ap.Runs, sim.Dur(ap.MakespanNs))
	pf("\nCritical path across all runs:\n")
	for _, k := range sortedKinds(ap.CritPathNs) {
		v := ap.CritPathNs[k]
		pf("  %-8s %12v  %5.1f%%\n", k, sim.Dur(v), pct(v, ap.MakespanNs))
	}
	if len(ap.Sites) > 0 {
		pf("\nTop sites by total time:\n")
		writeSiteTable(pf, ap.Sites, ap.MakespanNs)
		if ap.SitesOmitted > 0 {
			pf("  ... %d more sites omitted\n", ap.SitesOmitted)
		}
	}
	return err
}
