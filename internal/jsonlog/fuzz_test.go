package jsonlog

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplay holds the primitive to its two contracts on arbitrary
// bytes. Replay never panics, and an accepted image's intact prefix
// replays to the same records with nothing left over (what a restart
// reads after the torn-tail repair). And after OpenAppend, one more
// append replays to the accepted records plus the new one — never to
// corruption, whatever shape the prefix ended in.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(hdr))
	f.Add([]byte(`{"log":"test"}`))
	f.Add([]byte(hdr + `{"n":1}` + "\n" + `{"n":2,"s":"x"}` + "\n"))
	f.Add([]byte(hdr + `{"n":1}` + "\n" + `{"n":2`))                // torn final line
	f.Add([]byte(hdr + `{"n":1}` + "\n" + `{"n":2}`))               // final line missing its newline
	f.Add([]byte(hdr + `{"n":-1}` + "\n"))                          // final line fails its check
	f.Add([]byte(hdr + `{"n":1}{"n":2}` + "\n" + `{"n":3}` + "\n")) // concatenated records
	f.Add([]byte(hdr + "\n \n\r\n" + `{"n":1}` + "\r\n"))
	f.Add([]byte(hdr + `{"n":13}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := replay(string(data))
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good = %d outside [0, %d]", good, len(data))
		}
		recs2, good2, err := replay(string(data[:good]))
		if err != nil {
			t.Fatalf("intact prefix does not replay: %v", err)
		}
		if good2 != good || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("intact prefix replays differently: good %d/%d records %+v vs %+v", good2, good, recs2, recs)
		}

		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lf, err := OpenAppend(path, good)
		if err != nil {
			t.Fatal(err)
		}
		next := testRecord{N: 7, S: "appended"}
		batch, err := Lines(next)
		if err != nil {
			t.Fatal(err)
		}
		if err := lf.Append(batch); err != nil {
			t.Fatal(err)
		}
		lf.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs3, good3, err := replay(string(after))
		if err != nil {
			t.Fatalf("append after OpenAppend corrupted the log: %v\nbefore %q\nafter  %q", err, data, after)
		}
		if want := append(append([]testRecord(nil), recs...), next); !reflect.DeepEqual(recs3, want) || good3 != int64(len(after)) {
			t.Fatalf("append after OpenAppend: records %+v good %d/%d, want %+v", recs3, good3, len(after), want)
		}
	})
}
