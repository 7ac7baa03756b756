package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Snapshot is a registry read at one virtual time. It is a read-only view,
// not a copy: taking it orders the families by name and writes nothing to
// the registry, and writing it reads the series, which the registry keeps
// sorted by label values, and the record rows as they are then. So the
// registry must not be mutated between Snapshot and the last write (its
// run is finished, or its owner holds one lock around both). Two runs with
// the same seed write byte-identical snapshots.
type Snapshot struct {
	// AtNs is the virtual time the snapshot was taken, in nanoseconds.
	AtNs int64
	fams []famView // by name
}

// famView is one family as the writers read it: a family of the
// registry's own, or a record family, which reads sample fi of a run of
// folded record rows of one schema.
type famView struct {
	*Family
	series []*series
	rows   []Record
	fi     int
}

// Snapshot returns the registry's view at virtual time atNs.
func (r *Registry) Snapshot(atNs int64) *Snapshot {
	rows := r.recordRows()
	s := &Snapshot{AtNs: atNs, fams: make([]famView, 0, len(r.families))}
	for _, f := range r.families {
		s.fams = append(s.fams, famView{Family: f.Family, series: f.series})
	}
	for i, j := 0, 0; i < len(rows); i = j { // rows[i:j] are one schema's
		schema, _, _ := rows[i].Record()
		for j = i + 1; j < len(rows); j++ {
			if sc, _, _ := rows[j].Record(); sc != schema {
				break
			}
		}
		for fi, f := range schema.fams {
			s.fams = append(s.fams, famView{Family: f, rows: rows[i:j], fi: fi})
		}
	}
	slices.SortFunc(s.fams, func(a, b famView) int { return strings.Compare(a.name, b.name) })
	return s
}

// NumFamilies reports how many metric families the snapshot writes.
func (s *Snapshot) NumFamilies() int { return len(s.fams) }

// Values calls fn for every counter and gauge series, in the order the
// writers write them, with its name and labels in the form name{k=v,...}
// (the bare name when it has no labels), the virtual time of its last
// mutation and its value. Histograms and the resource families, one
// series per serialized resource, are skipped.
func (s *Snapshot) Values(fn func(series string, lastNs int64, v float64)) {
	var p point
	var b []byte
	for i := range s.fams {
		f := &s.fams[i]
		if f.kind == KindHistogram || f.rows != nil && slices.Contains(resourceSchema.fams, f.Family) {
			continue
		}
		for j := range f.size() {
			f.at(j, &p)
			b = append(b[:0], f.name...)
			sep := byte('{')
			for k, key := range f.keys {
				b = append(append(append(append(b, sep), key...), '='), p.label(k)...)
				sep = ','
			}
			if sep == ',' {
				b = append(b, '}')
			}
			v := float64(p.ival)
			if f.kind == KindGauge {
				v = p.fval
			}
			fn(string(b), p.lastNs, v)
		}
	}
}

// point is one series as the writers read it: a registry series or, in a
// record family, one record row. It lives on the writer's stack.
type point struct {
	keys   []string
	key    string // label values joined by \x1f; a row's name
	lastNs int64
	ival   int64   // counter value
	fval   float64 // gauge value
	h      *hist   // histogram state
}

// label returns the j-th label value: the j-th field of the key, or all
// of it for a family of one label, a record family's.
func (p *point) label(j int) string {
	key := p.key
	if len(p.keys) == 1 {
		return key
	}
	for ; j > 0; j-- {
		key = key[strings.Index(key, keySep)+1:]
	}
	if i := strings.Index(key, keySep); i >= 0 {
		return key[:i]
	}
	return key
}

// size returns the number of series the family writes.
func (f *famView) size() int {
	if f.rows != nil {
		return len(f.rows)
	}
	return len(f.series)
}

// at loads the family's i-th series into p.
func (f *famView) at(i int, p *point) {
	if f.rows != nil {
		_, name, smp := f.rows[i].Record()
		x := smp[f.fi]
		*p = point{keys: f.keys, key: name, lastNs: x.At, ival: x.V, fval: float64(x.V)}
		return
	}
	se := f.series[i]
	*p = point{keys: f.keys, key: se.key, lastNs: se.lastNs, ival: se.v, fval: se.gauge()}
	if se.h != nil {
		p.h, p.lastNs = &se.h.hist, se.h.lastNs
	}
}

// MarshalJSON returns the bytes WriteJSON writes, so a report embedding
// the snapshot encodes the same document.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	j := &writer{}
	err := s.writeJSON(j)
	return j.b, err
}

// WriteJSON emits the snapshot as indented JSON: exactly the bytes of a
// json.Encoder with SetIndent("", " ") encoding its families and series,
// appended directly instead of encoded by reflection and re-indented.
// Output is deterministic. A NaN or infinite gauge fails with the
// encoder's error before anything is written.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	return s.writeJSON(s.newWriter(w))
}

func (s *Snapshot) writeJSON(j *writer) error {
	for _, f := range s.fams {
		for _, se := range f.series {
			if v := se.gauge(); f.kind == KindGauge && (math.IsNaN(v) || math.IsInf(v, 0)) {
				_, err := json.Marshal(v)
				return err
			}
		}
	}
	j.open('{')
	j.key("at_ns")
	j.b = strconv.AppendInt(j.b, s.AtNs, 10)
	j.key("families")
	j.array(len(s.fams), func(i int) {
		f := &s.fams[i]
		j.key("name")
		j.str(f.name)
		if f.help != "" {
			j.key("help")
			j.str(f.help)
		}
		j.key("kind")
		j.str(f.kind.String())
		j.key("series")
		var p point
		j.array(f.size(), func(i int) {
			f.at(i, &p)
			j.series(f.kind, &p)
		})
	})
	j.close('}')
	j.b = append(j.b, '\n')
	return j.flush(0)
}

// flushChunk is the output a writer to w gathers before it writes it out.
const flushChunk = 32 << 10

// newWriter returns a writer to w whose buffer fits the snapshot: about
// 256 bytes a family and a series, capped at a flush chunk and the series
// that crosses it. So a small snapshot takes a small buffer, and a large
// one a buffer that rarely grows.
func (s *Snapshot) newWriter(w io.Writer) *writer {
	n := 256 * len(s.fams)
	for i := range s.fams {
		n += 256 * s.fams[i].size()
	}
	return &writer{w: w, b: make([]byte, 0, min(n, flushChunk+flushChunk/8))}
}

// writer appends output to b, flushing it to w in chunks; without w it
// keeps everything in b. Its JSON methods indent: depth is the nesting
// level and first whether the innermost array or object is still empty.
type writer struct {
	w     io.Writer
	b     []byte
	err   error
	depth int
	first bool
}

func (j *writer) open(c byte) {
	j.b = append(j.b, c)
	j.depth++
	j.first = true
}

// newline starts a line indented one space per level (a snapshot's
// deepest members are at level 7).
func (j *writer) newline() {
	j.b = append(j.b, "\n        "[:1+j.depth]...)
}

// next starts an element or member: a comma after the first, then a new line.
func (j *writer) next() {
	if !j.first {
		j.b = append(j.b, ',')
	}
	j.first = false
	j.newline()
}

func (j *writer) close(c byte) {
	j.depth--
	if !j.first { // an empty array or object stays on one line
		j.newline()
	}
	j.b = append(j.b, c)
	j.first = false
}

// key starts a member named by a plain ASCII name.
func (j *writer) key(name string) {
	j.next()
	j.b = append(j.b, '"')
	j.b = append(j.b, name...)
	j.b = append(j.b, `": `...)
}

// array writes an array of n objects whose members elem writes.
func (j *writer) array(n int, elem func(i int)) {
	j.open('[')
	for i := 0; i < n && j.flush(flushChunk) == nil; i++ {
		j.next()
		j.open('{')
		elem(i)
		j.close('}')
	}
	j.close(']')
}

// series writes a series' members in the order and with the omissions of
// the report's schema: labels, last_ns, then the kind's value members,
// each left out when zero.
func (j *writer) series(kind Kind, p *point) {
	if len(p.keys) > 0 {
		j.key("labels")
		j.array(len(p.keys), func(i int) {
			j.key("key")
			j.str(p.keys[i])
			j.key("value")
			j.str(p.label(i))
		})
	}
	j.key("last_ns")
	j.b = strconv.AppendInt(j.b, p.lastNs, 10)
	switch kind {
	case KindCounter:
		j.int("value", p.ival)
	case KindGauge:
		if p.fval != 0 {
			j.key("gauge_value")
			j.float(p.fval)
		}
	default:
		h := p.h
		if n := h.count(); n != 0 {
			j.key("count")
			j.b = strconv.AppendUint(j.b, n, 10)
		}
		j.int("sum", h.sum)
		j.int("min", h.min)
		j.int("max", h.max)
		if len(h.b) == 0 { // no samples: every stored bucket holds some
			return
		}
		j.key("buckets")
		j.open('[')
		for i, c := range h.b {
			if c != 0 {
				j.next()
				j.open('{')
				j.key("le")
				j.b = strconv.AppendInt(j.b, h.le(i), 10)
				j.key("n")
				j.b = strconv.AppendUint(j.b, c, 10)
				j.close('}')
			}
		}
		j.close(']')
	}
}

// int writes an omitempty integer member.
func (j *writer) int(name string, v int64) {
	if v != 0 {
		j.key(name)
		j.b = strconv.AppendInt(j.b, v, 10)
	}
}

// str appends s as encoding/json quotes it, HTML-safe: plain ASCII is
// copied and anything else left to json.Marshal.
func (j *writer) str(s string) {
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
func (j *writer) float(v float64) {
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
// returns the first write error. Without a writer it keeps the bytes.
func (j *writer) flush(limit int) error {
	if j.w != nil && j.err == nil && len(j.b) > limit {
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

// promSample appends one sample line: name and suffix, the point's label
// set plus an le label when le is not nil, then v.
func promSample(b []byte, name, suffix string, p *point, le, v []byte) []byte {
	b = append(append(b, name...), suffix...)
	sep := byte('{')
	for j, key := range p.keys {
		// promEscape already produces the exact escaped body; quoting by
		// formatting (%q) would escape its backslashes again.
		b = append(append(append(append(b, sep), key...), `="`...), promEscape(p.label(j))...)
		b, sep = append(b, '"'), ','
	}
	if le != nil {
		b = append(append(append(append(b, sep), `le="`...), le...), '"')
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(append(append(b, ' '), v...), '\n')
}

// promInf is the le bound of a histogram's last bucket.
var promInf = []byte("+Inf")

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (version 0.0.4). Histograms render with cumulative le buckets plus
// the +Inf bucket, _sum, and _count, so standard scrapers and promtool can
// consume the output. Output is deterministic.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	j := s.newWriter(w)
	var p point
	var num, le [24]byte
	for i := range s.fams {
		f := &s.fams[i]
		if f.help != "" {
			j.b = append(append(append(append(j.b, "# HELP "...), f.name...), ' '), helpEscape.Replace(f.help)...)
			j.b = append(j.b, '\n')
		}
		j.b = append(append(append(append(append(j.b, "# TYPE "...), f.name...), ' '), f.kind.String()...), '\n')
		for i, n := 0, f.size(); i < n && j.flush(flushChunk) == nil; i++ {
			f.at(i, &p)
			switch f.kind {
			case KindCounter:
				j.b = promSample(j.b, f.name, "", &p, nil, strconv.AppendInt(num[:0], p.ival, 10))
			case KindGauge:
				j.b = promSample(j.b, f.name, "", &p, nil, strconv.AppendFloat(num[:0], p.fval, 'g', -1, 64))
			default:
				cum := uint64(0)
				for k, c := range p.h.b {
					if c != 0 {
						cum += c
						j.b = promSample(j.b, f.name, "_bucket", &p, strconv.AppendInt(le[:0], p.h.le(k), 10),
							strconv.AppendUint(num[:0], cum, 10))
					}
				}
				count := strconv.AppendUint(num[:0], cum, 10)
				j.b = promSample(j.b, f.name, "_bucket", &p, promInf, count)
				j.b = promSample(j.b, f.name, "_sum", &p, nil, strconv.AppendInt(le[:0], p.h.sum, 10))
				j.b = promSample(j.b, f.name, "_count", &p, nil, count)
			}
		}
	}
	return j.flush(0)
}
