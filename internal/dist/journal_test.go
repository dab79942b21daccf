package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rocc/internal/core"
)

// The journal under test holds four one-job shards.
const testShards = 4

var testHeader = journalHeader{V: journalVersion, Jobs: testShards, ShardSize: 1, Fingerprint: "0123456789abcdef"}

func oneJob(int) int { return 1 }

// entryLine is one well-formed journal entry, newline included.
func entryLine(shard int) string {
	b, err := json.Marshal(journalEntry{Shard: shard, Results: []core.Result{{DurationSec: float64(shard + 1)}}})
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

func headerLine(h journalHeader) string {
	b, err := json.Marshal(h)
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

// resume opens the journal at path for resuming, as a sweep does.
func resume(t *testing.T, path string) (*journal, map[int][]core.Result) {
	t.Helper()
	j, rec, err := openJournal(path, true, testHeader, oneJob, testShards)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

// checkResumeAppendResume is the journal's crash contract: resuming
// never extends the file, keeps only well-formed, newline-terminated
// shard entries, and a shard appended after the resume is recovered next
// time together with everything the first resume recovered.
func checkResumeAppendResume(t *testing.T, path string) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, first := resume(t, path)
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(before, kept) {
		t.Fatalf("resume rewrote the journal: %d bytes became %d bytes that are not a prefix", len(before), len(kept))
	}
	lines := strings.SplitAfter(string(kept), "\n")
	if last := lines[len(lines)-1]; last != "" {
		t.Fatalf("resume kept an unterminated line %q", last)
	}
	for shard, rs := range first {
		if shard < 0 || shard >= testShards || len(rs) != 1 {
			t.Fatalf("recovered malformed shard %d with %d results", shard, len(rs))
		}
	}
	next := -1
	for s := 0; s < testShards && next < 0; s++ {
		if _, ok := first[s]; !ok {
			next = s
		}
	}
	if next >= 0 {
		if err := j.append(next, []core.Result{{DurationSec: 42}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	j, second := resume(t, path)
	j.close()
	for shard, rs := range first {
		if got, ok := second[shard]; !ok || got[0].DurationSec != rs[0].DurationSec {
			t.Fatalf("second resume lost shard %d that the first recovered", shard)
		}
	}
	if next >= 0 {
		if got, ok := second[next]; !ok || got[0].DurationSec != 42 {
			t.Fatalf("second resume lost the appended shard %d", next)
		}
	}
	want := len(first)
	if next >= 0 {
		want++
	}
	if len(second) != want {
		t.Fatalf("second resume recovered %d shards, want %d", len(second), want)
	}
}

// A crash can leave a complete entry whose newline never reached disk.
// Accepting it glued the next append onto the same line, and the resume
// after that dropped both shards and every later one.
func TestJournalDropsEntryWithoutNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	torn := headerLine(testHeader) + entryLine(0) + strings.TrimSuffix(entryLine(1), "\n")
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	checkResumeAppendResume(t, path)
	j, rec := resume(t, path)
	j.close()
	if _, ok := rec[0]; !ok || len(rec) != 2 {
		t.Fatalf("recovered %d shards, want shard 0 and the shard appended after the first resume", len(rec))
	}
}

// A journal written before the latency quantiles moved to the main
// process's histogram (1), or before main became one server (2), holds
// Results of another meaning: refuse it.
func TestJournalRefusesOtherVersion(t *testing.T) {
	for _, v := range []int{1, 2, journalVersion + 1} {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		old := testHeader
		old.V = v
		if err := os.WriteFile(path, []byte(headerLine(old)+entryLine(0)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := openJournal(path, true, testHeader, oneJob, testShards)
		if err == nil || !strings.Contains(err.Error(), "format version") {
			t.Errorf("V:%d journal: err = %v, want a format-version refusal", v, err)
		}
	}
}

// journalTails is the seed corpus of journal bodies after a valid header:
// torn, duplicated, out-of-range, wrongly sized and garbage entries.
var journalTails = []string{
	"",
	entryLine(0),
	strings.TrimSuffix(entryLine(0), "\n"), // the newline never reached disk
	entryLine(0) + strings.TrimSuffix(entryLine(1), "\n"),
	entryLine(2) + entryLine(0) + `{"shard":3,"TORN`,
	entryLine(1) + entryLine(1) + entryLine(3),
	`{"shard":7,"results":[{}]}` + "\n",    // out of range
	`{"shard":1,"results":[{},{}]}` + "\n", // wrong length
	`{"shard":-1,"results":[]}` + "\n",
	"\n\n" + entryLine(0),
	"garbage\n" + entryLine(0),
	strings.TrimSuffix(entryLine(0), "\n") + entryLine(1),
}

// Every seed journal survives a resume, an append and a second resume on
// disk, fsyncs and truncation included.
func TestJournalResumeAppendResume(t *testing.T) {
	for i, tail := range journalTails {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		if err := os.WriteFile(path, []byte(headerLine(testHeader)+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Run(strconv.Itoa(i), func(t *testing.T) { checkResumeAppendResume(t, path) })
	}
}

// parse parses a journal held in memory.
func parse(t *testing.T, data []byte) (map[int][]core.Result, int64) {
	t.Helper()
	rec, kept, err := parseJournal(bytes.NewReader(data), testHeader, oneJob, testShards)
	if err != nil {
		t.Fatal(err)
	}
	return rec, kept
}

// FuzzReplayJournal feeds the journal parser a valid header followed by
// arbitrary bytes, in memory: it must never panic, keep a
// newline-terminated prefix no longer than its input, recover only
// well-formed shards, and recover every one of them again from the kept
// prefix followed by a freshly appended entry. The on-disk path around
// the parser is TestJournalResumeAppendResume.
func FuzzReplayJournal(f *testing.F) {
	for _, tail := range journalTails {
		f.Add([]byte(tail))
	}
	hdr := headerLine(testHeader)
	f.Fuzz(func(t *testing.T, tail []byte) {
		in := append([]byte(hdr), tail...)
		first, kept := parse(t, in)
		if kept < int64(len(hdr)) || kept > int64(len(in)) {
			t.Fatalf("kept %d bytes of %d (header %d)", kept, len(in), len(hdr))
		}
		if in[kept-1] != '\n' {
			t.Fatalf("kept prefix ends in %q, not a newline", in[kept-1])
		}
		for shard, rs := range first {
			if shard < 0 || shard >= testShards || len(rs) != 1 {
				t.Fatalf("recovered malformed shard %d with %d results", shard, len(rs))
			}
		}
		next := -1
		for s := 0; s < testShards && next < 0; s++ {
			if _, ok := first[s]; !ok {
				next = s
			}
		}
		resumed := string(in[:kept])
		if next >= 0 {
			resumed += entryLine(next)
		}
		second, _ := parse(t, []byte(resumed))
		for shard, rs := range first {
			if got, ok := second[shard]; !ok || got[0].DurationSec != rs[0].DurationSec {
				t.Fatalf("re-parse lost shard %d", shard)
			}
		}
		want := len(first)
		if next >= 0 {
			if _, ok := second[next]; !ok {
				t.Fatalf("re-parse lost the appended shard %d", next)
			}
			want++
		}
		if len(second) != want {
			t.Fatalf("re-parse recovered %d shards, want %d", len(second), want)
		}
	})
}
