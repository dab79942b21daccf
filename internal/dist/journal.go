package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"rocc/internal/core"
)

// The journal checkpoints completed shards so an interrupted sweep
// resumes without recomputation. Format: one JSON document per line — a
// header identifying the job list (count, shard size, and a fingerprint
// of every job's canonical JSON), then one entry per completed shard.
// Entries are appended and fsynced as shards finish, so after a crash
// the file is a valid prefix plus at most one truncated line; resume
// truncates the garbage tail and recomputes only what is missing. A line
// counts only once its newline is on disk.
//
// Because every shard's seeds are pre-derived from the master seed, a
// resumed sweep merges journaled and fresh results into output
// byte-identical to an uninterrupted run.

// journalVersion versions the journal format and, like wireVersion, the
// meaning of the Results it holds (2: percentiles from the main process's
// histogram; 3: the main process served as one thread, and the three
// pipe-drop counts gone), so an older journal is refused rather than
// merged.
const journalVersion = 3

type journalHeader struct {
	V           int    `json:"v"`
	Jobs        int    `json:"jobs"`
	ShardSize   int    `json:"shard_size"`
	Fingerprint string `json:"fingerprint"`
}

type journalEntry struct {
	Shard   int           `json:"shard"`
	Results []core.Result `json:"results"`
}

// fingerprint hashes the canonical JSON of every job, so a journal can
// never be resumed against a different grid, seed, reps, or duration.
func fingerprint(jobs []Job) string {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, j := range jobs {
		enc.Encode(j) // writing to a hash cannot fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// journal is the append side; appends are serialized and fsynced.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (or creates) the journal at path. With resume set it
// first replays any existing file: the header must match, and every
// well-formed entry marks its shard recovered. A truncated tail —
// the mark of a crash mid-append — is cut off and overwritten. Without
// resume an existing file is truncated and started fresh.
func openJournal(path string, resume bool, hdr journalHeader, shardLen func(int) int, nShards int) (*journal, map[int][]core.Result, error) {
	if resume {
		if recovered, err := replayJournal(path, hdr, shardLen, nShards); err != nil {
			return nil, nil, err
		} else if recovered != nil {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, fmt.Errorf("dist: journal: %w", err)
			}
			return &journal{f: f}, recovered, nil
		}
		// No existing journal: fall through and start one.
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: journal: %w", err)
	}
	j := &journal{f: f}
	if err := j.writeLine(hdr); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, nil, nil
}

// replayJournal loads a journal's completed shards, truncating any
// garbage tail. Returns a nil map (and no error) when the file does not
// exist.
func replayJournal(path string, hdr journalHeader, shardLen func(int) int, nShards int) (map[int][]core.Result, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	defer f.Close()
	recovered, kept, err := parseJournal(f, hdr, shardLen, nShards)
	if err != nil {
		return nil, fmt.Errorf("dist: journal %s: %w", path, err)
	}
	if err := os.Truncate(path, kept); err != nil {
		return nil, fmt.Errorf("dist: journal %s: truncate garbage tail: %w", path, err)
	}
	return recovered, nil
}

// parseJournal reads a journal whose header must equal hdr and returns
// the shards of its valid prefix (first entry per shard wins) and that
// prefix's length in bytes, newlines included: where a resume truncates.
// The first malformed, out-of-range or wrongly sized entry ends the
// prefix.
func parseJournal(rd io.Reader, hdr journalHeader, shardLen func(int) int, nShards int) (map[int][]core.Result, int64, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), maxFrame)
	sc.Split(terminatedLines)
	if !sc.Scan() {
		return nil, 0, errors.New("missing header")
	}
	kept := int64(len(sc.Bytes())) + 1 // include the newline
	var have journalHeader
	if err := json.Unmarshal(sc.Bytes(), &have); err != nil {
		return nil, 0, fmt.Errorf("bad header: %w", err)
	}
	if have.V != hdr.V {
		return nil, 0, fmt.Errorf("has format version %d, this build writes %d; refusing to resume", have.V, hdr.V)
	}
	if have != hdr {
		return nil, 0, fmt.Errorf("was written by a different sweep (header %+v, want %+v); refusing to resume", have, hdr)
	}
	recovered := map[int][]core.Result{}
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			break // truncated tail from a crash mid-append
		}
		if e.Shard < 0 || e.Shard >= nShards || len(e.Results) != shardLen(e.Shard) {
			break // same: a partial or corrupt entry ends the valid prefix
		}
		if _, dup := recovered[e.Shard]; !dup {
			recovered[e.Shard] = e.Results
		}
		kept += int64(len(sc.Bytes())) + 1
	}
	if err := sc.Err(); err != nil && err != bufio.ErrTooLong {
		return nil, 0, err
	}
	return recovered, kept, nil
}

// terminatedLines is a bufio.SplitFunc that yields only lines whose
// newline is in the file. An unterminated last line is the torn tail of
// an interrupted append, even when it parses: accepting it would leave
// the next append glued onto the same line. Every accepted line is
// therefore exactly len(token)+1 bytes, so truncating to the accepted
// prefix can never extend the file.
func terminatedLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

// append checkpoints one completed shard.
func (j *journal) append(shard int, results []core.Result) error {
	return j.writeLine(journalEntry{Shard: shard, Results: results})
}

func (j *journal) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("dist: journal: %w", err)
	}
	// The fsync is the checkpoint guarantee: a shard acknowledged in the
	// journal survives a crash of the driver host.
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dist: journal: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
