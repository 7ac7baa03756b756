package prof

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadStream feeds arbitrary bytes to the trace stream reader:
// ReadStream must never panic or hang, and it must reject malformed input
// with an error. An accepted stream ends with its end record, so the same
// bytes cut before their last line must be rejected, and the assembled
// makespan covers every span. Seeds live in testdata/fuzz/FuzzReadStream;
// run with
//
//	go test -run '^$' -fuzz FuzzReadStream -fuzztime 15s ./internal/prof/
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range tr.Spans {
			if s.End > tr.Makespan {
				t.Fatalf("span %d ends at %d, past the makespan %d", s.ID, s.End, tr.Makespan)
			}
		}
		body := bytes.TrimRight(data, "\r\n")
		cut := body[:bytes.LastIndexByte(body, '\n')+1]
		if _, err := ReadStream(bytes.NewReader(cut)); err == nil {
			t.Fatalf("accepted %q, and also the same stream cut before its last line", data)
		}
	})
}

// TestReadStreamRejects pins the malformed streams ReadStream refuses, each
// with the error that names the fault.
func TestReadStreamRejects(t *testing.T) {
	const hdr = `{"t":"stream","v":"impacc-trace-stream-v1"}` + "\n"
	const end = `{"t":"end","makespan_ns":5}` + "\n"
	const span = `{"t":"span","node":0,"seq":1,"at":5,"span":{"id":1,"start":0,"end":5}}` + "\n"
	for _, tc := range []struct{ name, in, want string }{
		{"empty", "", "missing header"},
		{"bad version", `{"t":"stream","v":"x"}` + "\n" + end, "version"},
		{"record before header", span + hdr + end, "record before header"},
		{"truncated", hdr + span, "truncated"},
		{"record after end", hdr + end + span, "record after the end record"},
		{"second end", hdr + end + end, "record after the end record"},
		{"span without span", hdr + `{"t":"span","node":0,"seq":1}` + "\n" + end, "span record without its span"},
		{"edge without edge", hdr + `{"t":"edge","node":0,"seq":1}` + "\n" + end, "edge record without its edge"},
		{"unknown type", hdr + `{"t":"blob"}` + "\n" + end, "unknown record type"},
		{"not json", hdr + "{\n" + end, "line 2"},
	} {
		_, err := ReadStream(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadStream = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if tr, err := ReadStream(strings.NewReader(hdr + span + end)); err != nil || len(tr.Spans) != 1 || tr.Makespan != 5 {
		t.Errorf("well-formed stream: %+v, %v", tr, err)
	}
}
