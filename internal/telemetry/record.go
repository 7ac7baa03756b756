package telemetry

import (
	"fmt"
	"slices"
	"strings"
)

// Sample is one total of a record: its value and the virtual time at which
// it last changed.
type Sample struct {
	V, At int64
}

// Add increases the total by d at virtual time at; a delta that is not
// positive changes nothing, as Counter.Add ignores it.
func (s *Sample) Add(d, at int64) {
	if d > 0 {
		s.V += d
		s.At = at
	}
}

// SetMax raises the peak to v at virtual time at if v exceeds it.
func (s *Sample) SetMax(v, at int64) {
	if v > s.V {
		s.V, s.At = v, at
	}
}

// RecordSchema is the shape of a kind of record: the families its samples
// read as, one per sample in the record's order. Each family has one label
// key, whose value is the record's name; a counter family reads a total and
// a gauge family a peak. Declare a schema once, as a package-level value.
type RecordSchema struct {
	fams []*Family
}

// NewRecordSchema returns the schema whose i-th sample reads as fams[i].
// Every family must be a counter or a gauge with one label key.
func NewRecordSchema(fams ...*Family) *RecordSchema {
	for _, f := range fams {
		if len(f.keys) != 1 || f.kind == KindHistogram {
			panic(fmt.Sprintf("telemetry: record family %s must be a counter or gauge with one label", f.name))
		}
	}
	return &RecordSchema{fams: fams}
}

// A Record is a plain-field telemetry record: its owner updates its samples
// directly, so an update costs no registry lookup or clock call. A registry
// holding it (AddRecord) reads it only when snapshotted or merged, as one
// series of each family of its schema labeled with its name; records of one
// schema and name read as one series each. A registry holding records must
// not register their families itself.
type Record interface {
	// Record returns the record's schema, its name and its samples, one per
	// family of the schema.
	Record() (schema *RecordSchema, name string, samples []Sample)
}

// AddRecord attaches a record to the registry.
func (r *Registry) AddRecord(rec Record) {
	r.records = append(r.records, rec)
}

// row is a folded record: a copy that shares nothing with the records
// folded into it.
type row struct {
	schema *RecordSchema
	name   string
	s      []Sample
}

func (w *row) Record() (*RecordSchema, string, []Sample) { return w.schema, w.name, w.s }

// shardRecord is a record and the index of the shard registry holding it.
type shardRecord struct {
	rec   Record
	shard int
}

// appendRecords appends the registry's records, tagged with shard, to recs.
func (r *Registry) appendRecords(recs []shardRecord, shard int) []shardRecord {
	for _, rec := range r.records {
		recs = append(recs, shardRecord{rec, shard})
	}
	return recs
}

// compareRecords orders records by schema, then by name.
func compareRecords(a, b Record) int {
	as, an, _ := a.Record()
	bs, bn, _ := b.Record()
	return compareKeys(as, an, bs, bn)
}

// compareKeys orders (schema, name) pairs. Schemas order by their first
// family's name, which no other schema reads as.
func compareKeys(as *RecordSchema, an string, bs *RecordSchema, bn string) int {
	if as != bs {
		return strings.Compare(as.fams[0].name, bs.fams[0].name)
	}
	return strings.Compare(an, bn)
}

// recordRows returns the registry's records folded to rows sorted by
// schema and name, one per name. Records that are so already, as
// MergeShards and Merge leave them, are returned as they are.
func (r *Registry) recordRows() []Record {
	recs := r.records
	for i := 1; i < len(recs); i++ {
		if compareRecords(recs[i-1], recs[i]) >= 0 {
			return foldRecords(r.appendRecords(nil, 0), true)
		}
	}
	return recs
}

// foldRecords returns the records sorted by schema and name, with equal
// names folded into one row, a copy that shares nothing with them. A name
// only one record holds is that record itself when share is set, and a
// copy otherwise. Within one shard, records of one name fold as the one
// shared series per family that registering them by name would have made:
// totals add and their stamps keep the latest; a peak keeps the larger
// value and the time a record first reached it, as one shared gauge on one
// clock would have. Across shards the per-shard rows fold by
// Registry.Merge's rules: totals add, a peak keeps the larger value, and
// every stamp keeps the latest.
func foldRecords(recs []shardRecord, share bool) []Record {
	slices.SortFunc(recs, func(a, b shardRecord) int {
		if c := compareRecords(a.rec, b.rec); c != 0 {
			return c
		}
		return a.shard - b.shard
	})
	out := make([]Record, 0, len(recs))
	var shard []Sample // one shard's records of the name, folded
	for i := 0; i < len(recs); {
		schema, name, _ := recs[i].rec.Record()
		j := i + 1
		for ; j < len(recs); j++ {
			if sc, nm, _ := recs[j].rec.Record(); compareKeys(sc, nm, schema, name) != 0 {
				break
			}
		}
		if share && j == i+1 {
			out = append(out, recs[i].rec)
			i = j
			continue
		}
		w := &row{schema: schema, name: name}
		for i < j {
			_, _, s := recs[i].rec.Record()
			shard = append(shard[:0], s...)
			for i++; i < j && recs[i].shard == recs[i-1].shard; i++ {
				_, _, s := recs[i].rec.Record()
				w.fold(shard, s, true)
			}
			if w.s == nil {
				w.s = slices.Clone(shard)
			} else {
				w.fold(w.s, shard, false)
			}
		}
		out = append(out, w)
	}
	return out
}

// fold folds the samples src of a record of w's schema into dst: totals
// add and keep the latest stamp; a peak keeps the larger value, and its
// stamp is the earlier one of equal peaks within a shard and the latest
// stamp across shards.
func (w *row) fold(dst, src []Sample, sameShard bool) {
	for i, f := range w.schema.fams {
		d, s := &dst[i], src[i]
		switch {
		case f.kind == KindCounter:
			d.V += s.V
			d.At = max(d.At, s.At)
		case sameShard:
			if s.V > d.V || s.V == d.V && s.At < d.At {
				*d = s
			}
		default:
			d.V, d.At = max(d.V, s.V), max(d.At, s.At)
		}
	}
}
