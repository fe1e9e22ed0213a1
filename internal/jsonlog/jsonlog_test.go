package jsonlog

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type testHeader struct {
	Log string `json:"log"`
}

type testRecord struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// testCodec accepts headers naming the "test" log, refuses records with
// a negative N as malformed (torn-tolerant on the final line) and, via
// the apply func in replay, N == 13 as a schema violation (corruption
// wherever it sits).
var testCodec = Codec[testHeader, testRecord]{
	CheckHeader: func(h *testHeader) error {
		if h.Log != "test" {
			return errors.New("not a test log")
		}
		return nil
	},
	CheckRecord: func(r *testRecord) error {
		if r.N < 0 {
			return errors.New("negative n")
		}
		return nil
	},
}

const hdr = `{"log":"test"}` + "\n"

func replay(data string) ([]testRecord, int64, error) {
	var recs []testRecord
	var h testHeader
	good, err := testCodec.Replay([]byte(data), &h, func(r testRecord) error {
		if r.N == 13 {
			return errors.New("unlucky record")
		}
		recs = append(recs, r)
		return nil
	})
	return recs, good, err
}

func TestReplayRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
		n    int    // records replayed
		good int    // -1: len(data)
		err  string // substring of the error; "" for success
	}{
		{"header only", hdr, 0, -1, ""},
		{"header without newline", `{"log":"test"}`, 0, -1, ""},
		{"records", hdr + `{"n":1}` + "\n" + `{"n":2}` + "\n", 2, -1, ""},
		{"blank lines skipped", hdr + "\n  \n" + `{"n":1}` + "\n\n", 1, -1, ""},
		{"crlf lines", `{"log":"test"}` + "\r\n" + `{"n":1}` + "\r\n", 1, -1, ""},
		{"final line missing newline", hdr + `{"n":1}` + "\n" + `{"n":2}`, 2, -1, ""},
		{"torn final line", hdr + `{"n":1}` + "\n" + `{"n":2,"s":"ab`, 1, len(hdr) + 8, ""},
		{"bad final line with newline", hdr + `{"n":1}` + "\n" + `{nope` + "\n", 1, len(hdr) + 8, ""},
		{"final line fails its check", hdr + `{"n":1}` + "\n" + `{"n":-1}` + "\n", 1, len(hdr) + 8, ""},
		{"empty", "", 0, 0, "empty log"},
		{"bad header", "{nope\n", 0, 0, "bad header"},
		{"wrong header", `{"log":"other"}` + "\n", 0, 0, "bad header: not a test log"},
		{"interior garbage", hdr + "{nope\n" + `{"n":1}` + "\n", 0, 0, "line 2:"},
		{"interior check failure", hdr + `{"n":-1}` + "\n" + `{"n":1}` + "\n", 0, 0, "line 2: negative n"},
		{"garbage before trailing blank line", hdr + "{nope\n\n", 0, 0, "line 2:"},
		{"two documents on one line", hdr + `{"n":1}{"n":2}` + "\n" + `{"n":3}` + "\n", 0, 0, "line 2: trailing data after JSON document"},
		{"apply error is fatal even on the final line", hdr + `{"n":1}` + "\n" + `{"n":13}`, 0, 0, "line 3: unlucky record"},
	} {
		recs, good, err := replay(tc.data)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := int64(tc.good)
		if tc.good < 0 {
			want = int64(len(tc.data))
		}
		if len(recs) != tc.n || good != want {
			t.Errorf("%s: %d records good %d, want %d/%d", tc.name, len(recs), good, tc.n, want)
		}
	}
}

func TestReplayUnknownFields(t *testing.T) {
	data := []byte(hdr + `{"n":1,"extra":true}` + "\n" + `{"n":2}` + "\n")
	var h testHeader
	if _, err := testCodec.Replay(data, &h, func(testRecord) error { return nil }); err != nil {
		t.Fatalf("lenient codec refused an unknown field: %v", err)
	}
	strict := testCodec
	strict.DisallowUnknownFields = true
	if _, err := strict.Replay(data, &h, func(testRecord) error { return nil }); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict codec: err = %v, want a line 2 refusal", err)
	}
}

func writeFile(t *testing.T, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func mustLines(t *testing.T, vs ...testRecord) []byte {
	t.Helper()
	b, err := Lines(vs...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpenAppendRepairsTail: whatever shape the intact prefix ends in,
// the next append replays as one more record — a torn tail is cut, an
// unterminated final line is terminated first.
func TestOpenAppendRepairsTail(t *testing.T) {
	for _, tc := range []struct {
		name, data, want string
	}{
		{"clean", hdr + `{"n":1}` + "\n", hdr + `{"n":1}` + "\n" + `{"n":9}` + "\n"},
		{"torn tail", hdr + `{"n":1}` + "\n" + `{"n":2,"s`, hdr + `{"n":1}` + "\n" + `{"n":9}` + "\n"},
		{"unterminated final line", hdr + `{"n":1}`, hdr + `{"n":1}` + "\n" + `{"n":9}` + "\n"},
		{"unterminated header", `{"log":"test"}`, hdr + `{"n":9}` + "\n"},
	} {
		path := writeFile(t, tc.data)
		_, good, err := replay(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lf, err := OpenAppend(path, good)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := lf.Append(mustLines(t, testRecord{N: 9})); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lf.Close()
		if got := readFile(t, path); got != tc.want {
			t.Errorf("%s: file %q, want %q", tc.name, got, tc.want)
		}
		if int64(len(tc.want)) != lf.Size() {
			t.Errorf("%s: Size %d, want %d", tc.name, lf.Size(), len(tc.want))
		}
	}
}

// TestCreateAppendRewrite walks a log through its whole life: create
// with a header, a batched append, an atomic rewrite that moves the
// append handle, and one more append landing in the rewritten file.
func TestCreateAppendRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	h, err := Lines(testHeader{Log: "test"})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	if err := lf.Append(mustLines(t, testRecord{N: 1}, testRecord{N: 2, S: "x"})); err != nil {
		t.Fatal(err)
	}
	want := hdr + `{"n":1}` + "\n" + `{"n":2,"s":"x"}` + "\n"
	if got := readFile(t, path); got != want || lf.Size() != int64(len(want)) {
		t.Fatalf("after append: %q (size %d), want %q", got, lf.Size(), want)
	}
	image := hdr + `{"n":3}` + "\n"
	if err := lf.Rewrite([]byte(image)); err != nil {
		t.Fatal(err)
	}
	if err := lf.Append(mustLines(t, testRecord{N: 4})); err != nil {
		t.Fatal(err)
	}
	want = image + `{"n":4}` + "\n"
	if got := readFile(t, path); got != want || lf.Size() != int64(len(want)) {
		t.Fatalf("after rewrite: %q (size %d), want %q", got, lf.Size(), want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries, want only the log (temp file left behind?)", len(ents))
	}
	lf.Close()
	if err := lf.Append(mustLines(t, testRecord{N: 5})); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestWriteAtomicReplaces(t *testing.T) {
	path := writeFile(t, "old contents that are longer\n")
	if err := WriteAtomic(path, []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "new\n" {
		t.Fatalf("file %q", got)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after atomic write, want 1", len(ents))
	}
	if err := WriteAtomic(filepath.Join(t.TempDir(), "missing", "log"), nil); err == nil {
		t.Fatal("atomic write into a missing directory succeeded")
	}
}

func TestWriterCounts(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	for _, v := range []any{testHeader{Log: "test"}, testRecord{N: 1}} {
		if err := w.Line(v); err != nil {
			t.Fatal(err)
		}
	}
	want := hdr + `{"n":1}` + "\n"
	if sb.String() != want || w.Lines() != 2 || w.Bytes() != int64(len(want)) {
		t.Fatalf("wrote %q, %d lines, %d bytes", sb.String(), w.Lines(), w.Bytes())
	}
	recs, _, err := replay(sb.String())
	if err != nil || !reflect.DeepEqual(recs, []testRecord{{N: 1}}) {
		t.Fatalf("writer output does not replay: %v %+v", err, recs)
	}
}
