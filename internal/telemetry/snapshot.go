package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time export of a registry: plain data, safe to
// embed in run reports and to serialize. Families, series, and labels are
// sorted, so marshaling a snapshot is deterministic.
type Snapshot struct {
	// AtNs is the virtual time the snapshot was taken, in nanoseconds.
	AtNs     int64        `json:"at_ns"`
	Families []FamilySnap `json:"families"`
}

// FamilySnap is one metric family in a snapshot.
type FamilySnap struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Kind   string       `json:"kind"`
	Series []SeriesSnap `json:"series"`
}

// SeriesSnap is one series in a snapshot.
type SeriesSnap struct {
	Labels []Label `json:"labels,omitempty"`
	LastNs int64   `json:"last_ns"`
	// Counter value.
	Value int64 `json:"value,omitempty"`
	// Gauge value.
	GaugeValue float64 `json:"gauge_value,omitempty"`
	// Histogram aggregate and non-cumulative log2 buckets.
	Count   uint64       `json:"count,omitempty"`
	Sum     int64        `json:"sum,omitempty"`
	Min     int64        `json:"min,omitempty"`
	Max     int64        `json:"max,omitempty"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// BucketSnap is one occupied histogram bucket: N samples with value <= Le
// (and greater than the previous bucket's Le).
type BucketSnap struct {
	Le int64  `json:"le"`
	N  uint64 `json:"n"`
}

// Snapshot exports the registry's current state at virtual time atNs.
// Families sort by name and series by label values.
func (r *Registry) Snapshot(atNs int64) *Snapshot {
	fams := r.allFamilies()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	snap := &Snapshot{AtNs: atNs, Families: make([]FamilySnap, len(fams))}
	for i, f := range fams {
		snap.Families[i] = f.snapshot()
	}
	return snap
}

// snapshot exports the family, sorting its series by key first. The
// series' labels share one allocation.
func (f *family) snapshot() FamilySnap {
	slices.SortFunc(f.series, func(a, b *series) int { return strings.Compare(a.key, b.key) })
	fs := FamilySnap{Name: f.name, Help: f.help, Kind: f.kind.String(), Series: make([]SeriesSnap, len(f.series))}
	k := len(f.keys)
	labels := make([]Label, k*len(f.series))
	for i, s := range f.series {
		ss := &fs.Series[i]
		ss.LastNs = s.lastNs
		if k > 0 {
			ss.Labels = labels[i*k : (i+1)*k : (i+1)*k]
			for j, key := range f.keys {
				ss.Labels[j] = Label{Key: key, Value: s.values[j]}
			}
		}
		switch f.kind {
		case KindCounter:
			ss.Value = s.ival
		case KindGauge:
			ss.GaugeValue = s.fval
		default:
			h := s.hist()
			ss.Count, ss.Sum, ss.Min, ss.Max = h.count, h.sum, h.min, h.max
			for b, n := range h.buckets {
				if n == 0 {
					continue
				}
				le := int64(0)
				if b > 0 {
					le = 1<<uint(b) - 1
				}
				ss.Buckets = append(ss.Buckets, BucketSnap{Le: le, N: n})
			}
		}
	}
	return fs
}

// WriteFile stores the snapshot at path: Prometheus text exposition when
// the path ends in .prom, indented JSON otherwise.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = s.WritePrometheus(f)
	} else {
		err = s.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteJSON emits the snapshot as indented JSON: exactly the bytes of a
// json.Encoder with SetIndent("", " "), appended directly instead of
// encoded by reflection and re-indented. Output is deterministic. A NaN or
// infinite gauge fails with the encoder's error before anything is written.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	for i := range s.Families {
		for _, ss := range s.Families[i].Series {
			if v := ss.GaugeValue; math.IsNaN(v) || math.IsInf(v, 0) {
				_, err := json.Marshal(v)
				return err
			}
		}
	}
	j := &jsonWriter{w: w, b: make([]byte, 0, 64<<10)}
	j.open('{')
	j.key("at_ns")
	j.b = strconv.AppendInt(j.b, s.AtNs, 10)
	j.key("families")
	j.array(s.Families == nil, len(s.Families), func(i int) {
		f := &s.Families[i]
		j.key("name")
		j.str(f.Name)
		if f.Help != "" {
			j.key("help")
			j.str(f.Help)
		}
		j.key("kind")
		j.str(f.Kind)
		j.key("series")
		j.array(f.Series == nil, len(f.Series), func(i int) { j.series(&f.Series[i]) })
	})
	j.close('}')
	j.b = append(j.b, '\n')
	return j.flush(0)
}

// jsonWriter appends indented JSON to b, flushing it to w in large chunks.
// depth is the nesting level and first whether the innermost array or
// object is still empty.
type jsonWriter struct {
	w     io.Writer
	b     []byte
	err   error
	depth int
	first bool
}

func (j *jsonWriter) open(c byte) {
	j.b = append(j.b, c)
	j.depth++
	j.first = true
}

// newline starts a line indented one space per level (a snapshot's
// deepest members are at level 7).
func (j *jsonWriter) newline() {
	j.b = append(j.b, "\n        "[:1+j.depth]...)
}

// next starts an element or member: a comma after the first, then a new line.
func (j *jsonWriter) next() {
	if !j.first {
		j.b = append(j.b, ',')
	}
	j.first = false
	j.newline()
}

func (j *jsonWriter) close(c byte) {
	j.depth--
	if !j.first { // an empty array or object stays on one line
		j.newline()
	}
	j.b = append(j.b, c)
	j.first = false
}

// key starts a member named by a plain ASCII name.
func (j *jsonWriter) key(name string) {
	j.next()
	j.b = append(j.b, '"')
	j.b = append(j.b, name...)
	j.b = append(j.b, `": `...)
}

// array writes null when isNil, else an array of n objects whose members
// elem writes.
func (j *jsonWriter) array(isNil bool, n int, elem func(i int)) {
	if isNil {
		j.b = append(j.b, "null"...)
		return
	}
	j.open('[')
	for i := 0; i < n && j.flush(32<<10) == nil; i++ {
		j.next()
		j.open('{')
		elem(i)
		j.close('}')
	}
	j.close(']')
}

// series writes a SeriesSnap's members in field order, omitting the zero
// ones its omitempty tags omit.
func (j *jsonWriter) series(ss *SeriesSnap) {
	if len(ss.Labels) > 0 {
		j.key("labels")
		j.array(false, len(ss.Labels), func(i int) {
			j.key("key")
			j.str(ss.Labels[i].Key)
			j.key("value")
			j.str(ss.Labels[i].Value)
		})
	}
	j.key("last_ns")
	j.b = strconv.AppendInt(j.b, ss.LastNs, 10)
	j.int("value", ss.Value)
	if ss.GaugeValue != 0 {
		j.key("gauge_value")
		j.float(ss.GaugeValue)
	}
	if ss.Count != 0 {
		j.key("count")
		j.b = strconv.AppendUint(j.b, ss.Count, 10)
	}
	j.int("sum", ss.Sum)
	j.int("min", ss.Min)
	j.int("max", ss.Max)
	if len(ss.Buckets) > 0 {
		j.key("buckets")
		j.array(false, len(ss.Buckets), func(i int) {
			j.key("le")
			j.b = strconv.AppendInt(j.b, ss.Buckets[i].Le, 10)
			j.key("n")
			j.b = strconv.AppendUint(j.b, ss.Buckets[i].N, 10)
		})
	}
}

// int writes an omitempty integer member.
func (j *jsonWriter) int(name string, v int64) {
	if v != 0 {
		j.key(name)
		j.b = strconv.AppendInt(j.b, v, 10)
	}
}

// str appends s as encoding/json quotes it, HTML-safe: plain ASCII is
// copied and anything else left to json.Marshal.
func (j *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			j.b = append(j.b, q...)
			return
		}
	}
	j.b = append(j.b, '"')
	j.b = append(j.b, s...)
	j.b = append(j.b, '"')
}

// float appends a finite v in encoding/json's format: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up.
func (j *jsonWriter) float(v float64) {
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	j.b = strconv.AppendFloat(j.b, v, format, -1, 64)
	if n := len(j.b); format == 'e' && j.b[n-4] == 'e' && j.b[n-3] == '-' && j.b[n-2] == '0' {
		j.b[n-2] = j.b[n-1] // e-07 -> e-7
		j.b = j.b[:n-1]
	}
}

// flush writes the buffer out once it holds more than limit bytes and
// returns the first write error.
func (j *jsonWriter) flush(limit int) error {
	if j.err == nil && len(j.b) > limit {
		_, j.err = j.w.Write(j.b)
		j.b = j.b[:0]
	}
	return j.err
}

// promEscape escapes a label value for the Prometheus text format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// helpEscape escapes a docstring for a # HELP line: the text format gives
// it two escapes, backslash and newline.
var helpEscape = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// promLabels renders a sorted label set, optionally with an extra le pair.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		// promEscape already produced the exact escaped body; %q would
		// re-escape its backslashes, emitting \\n where Prometheus expects
		// \n. Quote by concatenation, not by formatting.
		parts[i] = l.Key + `="` + promEscape(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (version 0.0.4). Histograms render with cumulative le buckets plus
// the +Inf bucket, _sum, and _count, so standard scrapers and promtool can
// consume the output. Output is deterministic.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for fi := range s.Families {
		f := &s.Families[fi]
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, helpEscape.Replace(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for i := range f.Series {
			ss := &f.Series[i]
			switch f.Kind {
			case "counter":
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.Name, promLabels(ss.Labels), ss.Value); err != nil {
					return err
				}
			case "gauge":
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, promLabels(ss.Labels),
					strconv.FormatFloat(ss.GaugeValue, 'g', -1, 64)); err != nil {
					return err
				}
			default: // histogram
				cum := uint64(0)
				for _, b := range ss.Buckets {
					cum += b.N
					le := Label{Key: "le", Value: strconv.FormatInt(b.Le, 10)}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, promLabels(ss.Labels, le), cum); err != nil {
						return err
					}
				}
				inf := Label{Key: "le", Value: "+Inf"}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, promLabels(ss.Labels, inf), ss.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.Name, promLabels(ss.Labels), ss.Sum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, promLabels(ss.Labels), ss.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
