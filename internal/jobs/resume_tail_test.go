package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReopenAfterUnterminatedBandAppendsCleanly is the second-crash
// regression: a crash persisted band 1's record minus only its trailing
// newline. Replay accepts that record, so the reopened handle must
// terminate the line before appending — otherwise band 2 concatenates
// onto it and the next replay quarantines the job as corrupt.
func TestReopenAfterUnterminatedBandAppendsCleanly(t *testing.T) {
	dir := t.TempDir()
	stats := wholeGrid(t, testNet(t, 30, 3), surveySpec(4))[0]
	hdr := testHeader(t, 4)
	var buf bytes.Buffer
	buf.Write(mustLine(t, hdr))
	buf.Write(mustLine(t, record{Band: intp(0), Stats: &stats}))
	band1 := mustLine(t, record{Band: intp(1), Stats: &stats})
	buf.Write(band1[:len(band1)-1])
	path := filepath.Join(dir, hdr.ID+fileSuffix)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, bands, _, good, err := parseJob(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 2 || good != int64(buf.Len()) {
		t.Fatalf("first replay: bands %d good %d, want 2/%d", len(bands), good, buf.Len())
	}
	jf, err := reopenJobFile(path, hdr, good)
	if err != nil {
		t.Fatal(err)
	}
	for b := 2; b < 4; b++ {
		if err := jf.append(record{Band: intp(b), Stats: &stats}); err != nil {
			t.Fatal(err)
		}
	}
	jf.close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, bands, _, good, err = parseJob(data)
	if err != nil {
		t.Fatalf("replay after the second crash: %v", err)
	}
	if len(bands) != 4 || good != int64(len(data)) {
		t.Fatalf("second replay: bands %d good %d, want 4/%d", len(bands), good, len(data))
	}
}
