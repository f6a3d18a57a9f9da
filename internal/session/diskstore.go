package session

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// DiskStore is the crash-safe Store: one append-only file per session.
//
// Layout under the root directory:
//
//	sessions/<id>.log
//	  line 1   {"meta":"<base64>","snapshot":{...}}  the create record, written once
//	  line 2+  {"seq":N,"answer":{...}}              one per delivered answer
//	  last     {"seq":N,"done":true}                 closes a finished session's log
//
// Create writes the first line to a temporary file, fsyncs it, renames
// it into place and fsyncs the directory, so a session's file appears
// whole or not at all. Every answer append is one JSON line written and
// fsync'd before the delivery is acknowledged, so an acknowledged answer
// survives a hard process kill; the done line rides on the final
// answer's write and fsync. A final line without its newline (the kill
// landed mid-write, before the fsync, so the answer was never
// acknowledged) is dropped by Get and truncated away before the next
// append; a malformed line anywhere earlier is reported as corruption.
//
// Session IDs that are not filesystem-safe are hex-encoded with an "@"
// prefix, so arbitrary snapshot IDs cannot escape the root directory.
//
// The store's own mutex guards only the open-file map and the closed
// flag: file writes and fsyncs run outside it. Per-ID call serialization
// is the caller's contract (the owning session's lock), so sessions
// fsync their logs in parallel instead of queueing every answer in the
// process behind one global lock.
type DiskStore struct {
	root string

	mu     sync.Mutex
	logs   map[string]*os.File
	closed bool

	// fsyncClock/fsyncHist, when wired via InstrumentFsync, time the log
	// fsync syscall in AppendAnswer — the latency every acknowledged
	// answer pays for durability. The store never reads the wall clock
	// itself; the clock is injected by the owner (the server).
	fsyncClock obs.Clock
	fsyncHist  *obs.Histogram

	// failpoint, when set (tests only), runs before every physical write
	// boundary; a returned error aborts the operation as a crash would.
	// errTornWrite on "append.write" writes the record up to the middle of
	// its last line first, simulating a torn line.
	failpoint func(op string) error
}

// createLine is the first line of a session's file.
type createLine struct {
	Meta     []byte          `json:"meta"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// logLine is every later line: an answer, or the closing done marker.
type logLine struct {
	Seq    int        `json:"seq"`
	Answer *AnswerRec `json:"answer,omitempty"`
	Done   bool       `json:"done,omitempty"`
}

// errTornWrite makes the append failpoint write a partial record before
// failing, so recovery sees a torn final line.
var errTornWrite = errors.New("session: failpoint torn write")

// NewDiskStore opens (creating if needed) a disk store rooted at dir. A
// directory written by a release that kept a directory per session is
// refused rather than read as empty.
func NewDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, errors.New("session: disk store needs a data directory")
	}
	sessions := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(sessions, 0o755); err != nil {
		return nil, fmt.Errorf("session: disk store: %w", err)
	}
	entries, err := os.ReadDir(sessions)
	if err != nil {
		return nil, fmt.Errorf("session: disk store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			return nil, fmt.Errorf("session: %s holds sessions in the old directory-per-session layout (sessions/%s/{meta,snapshot.json,wal-*.log}); this release stores sessions/<id>.log — finish those sessions with the release that wrote them or choose a fresh data directory",
				dir, e.Name())
		}
	}
	return &DiskStore{root: dir, logs: make(map[string]*os.File)}, nil
}

// InstrumentFsync wires a latency histogram over the log fsync in
// AppendAnswer, timed with the injected monotonic clock. Call it before
// the store serves traffic; a nil clock disables the instrumentation.
func (d *DiskStore) InstrumentFsync(clock obs.Clock, h *obs.Histogram) {
	d.fsyncClock = clock
	d.fsyncHist = h
}

// fail invokes the failpoint hook for one write boundary.
func (d *DiskStore) fail(op string) error {
	if d.failpoint == nil {
		return nil
	}
	return d.failpoint(op)
}

// encodeID maps a session ID to a safe file name stem, reversibly.
func encodeID(id string) string {
	safe := id != "" && id[0] != '@' && id != "." && id != ".."
	for i := 0; safe && i < len(id); i++ {
		c := id[i]
		safe = c == '-' || c == '_' || c == '.' ||
			('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
	}
	if safe {
		return id
	}
	return "@" + hex.EncodeToString([]byte(id))
}

// decodeID inverts encodeID.
func decodeID(name string) (string, error) {
	if !strings.HasPrefix(name, "@") {
		return name, nil
	}
	raw, err := hex.DecodeString(name[1:])
	if err != nil {
		return "", fmt.Errorf("session: undecodable session file %q", name)
	}
	return string(raw), nil
}

const logSuffix = ".log"

func (d *DiskStore) sessionsDir() string { return filepath.Join(d.root, "sessions") }

func (d *DiskStore) logPath(id string) string {
	return filepath.Join(d.sessionsDir(), encodeID(id)+logSuffix)
}

// syncDir fsyncs the sessions directory so renames and removals inside
// it are durable.
func (d *DiskStore) syncDir() error {
	if err := d.fail("dir.sync"); err != nil {
		return err
	}
	f, err := os.Open(d.sessionsDir())
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// checkOpen fails fast once the store is closed. An operation that
// races a concurrent Close past this check fails on its closed file
// handles instead — never silently, never corrupting.
func (d *DiskStore) checkOpen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrStoreClosed
	}
	return nil
}

// register makes f the session's open log, closing it instead when the
// store was closed meanwhile. Only the map write takes the store mutex.
func (d *DiskStore) register(id string, f *os.File) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		f.Close()
		return ErrStoreClosed
	}
	d.logs[id] = f
	return nil
}

// Create implements Store: the create record goes through tmp + fsync +
// rename + directory fsync, and the handle stays open for the appends.
func (d *DiskStore) Create(id string, meta, snapshot []byte) (err error) {
	if err := d.checkOpen(); err != nil {
		return err
	}
	path := d.logPath(id)
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("%w: %q", ErrStoreExists, id)
	}
	line, err := json.Marshal(createLine{Meta: meta, Snapshot: snapshot})
	if err != nil {
		return fmt.Errorf("session: snapshot of %q is not JSON: %w", id, err)
	}
	if err := d.fail("create.write"); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := d.fail("create.sync"); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := d.fail("create.rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := d.syncDir(); err != nil {
		return err
	}
	return d.register(id, f)
}

// tailChunk is how much of a log's end is read at a time in search of
// its last newline: an answer line is a few hundred bytes.
const tailChunk = 4096

// wholeSize returns the size of f and how many of its leading bytes end
// in a newline, found by reading backwards from the end: whatever follows
// them is a torn final line.
func wholeSize(f *os.File) (whole, size int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, tailChunk)
	for end := st.Size(); end > 0; {
		start := max(end-tailChunk, 0)
		if _, err := f.ReadAt(buf[:end-start], start); err != nil {
			return 0, 0, err
		}
		if i := bytes.LastIndexByte(buf[:end-start], '\n'); i >= 0 {
			return start + int64(i) + 1, st.Size(), nil
		}
		end = start
	}
	return 0, st.Size(), nil
}

// log returns the session's open log, reopening the file after a
// restart. A torn final line is truncated away first: the next append
// would otherwise bury it mid-file, where it reads as corruption.
func (d *DiskStore) log(id string) (*os.File, error) {
	d.mu.Lock()
	f, closed := d.logs[id], d.closed
	d.mu.Unlock()
	if closed {
		return nil, ErrStoreClosed
	}
	if f != nil {
		return f, nil
	}
	f, err := os.OpenFile(d.logPath(id), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrStoreNotFound, id)
		}
		return nil, err
	}
	whole, size, err := wholeSize(f)
	if err == nil && whole < size {
		err = f.Truncate(whole)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, d.register(id, f)
}

// AppendAnswer implements Store. The record — and, when done, the
// closing marker after it — is written as JSON lines in one write and
// fsync'd before returning. No store-wide lock is held across the write:
// concurrent sessions append in parallel.
func (d *DiskStore) AppendAnswer(id string, seq int, rec AnswerRec, done bool) error {
	f, err := d.log(id)
	if err != nil {
		return err
	}
	buf, err := json.Marshal(logLine{Seq: seq, Answer: &rec})
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	torn := len(buf) / 2 // where a torn write stops: midway through the last line
	if done {
		n := len(buf)
		buf = fmt.Appendf(buf, "{\"seq\":%d,\"done\":true}\n", seq+1)
		torn = (n + len(buf)) / 2
	}
	if err := d.fail("append.write"); err != nil {
		if errors.Is(err, errTornWrite) {
			f.Write(buf[:torn]) //nolint:errcheck // simulating a torn write
		}
		return err
	}
	if _, err := f.Write(buf); err != nil {
		return err
	}
	if err := d.fail("append.sync"); err != nil {
		return err
	}
	if d.fsyncClock == nil {
		return f.Sync()
	}
	t0 := d.fsyncClock()
	err = f.Sync()
	d.fsyncHist.ObserveNS(d.fsyncClock() - t0)
	return err
}

// Get implements Store, reading the record back from disk.
func (d *DiskStore) Get(id string) (*Record, error) {
	if err := d.checkOpen(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(d.logPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrStoreNotFound, id)
		}
		return nil, err
	}
	// Only the prefix that ends in a newline is read: a final line without
	// one is a torn append that was never acknowledged.
	lines := bytes.Split(data[:bytes.LastIndexByte(data, '\n')+1], []byte{'\n'})
	var head createLine
	if err := json.Unmarshal(lines[0], &head); err != nil {
		return nil, fmt.Errorf("session: %q: corrupt create record: %w", id, err)
	}
	rec := &Record{Meta: head.Meta, Snapshot: head.Snapshot}
	// The split leaves one empty element after the final newline.
	for i, line := range lines[1 : len(lines)-1] {
		var l logLine
		err := json.Unmarshal(line, &l)
		if err == nil && (rec.Done || l.Done == (l.Answer != nil)) {
			err = errors.New("neither an answer nor the done marker that closes the log")
		}
		if err != nil {
			return nil, fmt.Errorf("session: %q: corrupt log line %d: %w", id, i+2, err)
		}
		if l.Done {
			rec.Done = true
			continue
		}
		rec.Log = append(rec.Log, LogRec{Seq: l.Seq, Answer: *l.Answer})
	}
	return rec, nil
}

// List implements Store. Temporary files of aborted Creates are skipped.
func (d *DiskStore) List() ([]string, error) {
	if err := d.checkOpen(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(d.sessionsDir())
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		stem, ok := strings.CutSuffix(e.Name(), logSuffix)
		if !ok {
			continue
		}
		id, err := decodeID(stem)
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// Delete implements Store.
func (d *DiskStore) Delete(id string) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrStoreClosed
	}
	if f := d.logs[id]; f != nil {
		f.Close()
		delete(d.logs, id)
	}
	d.mu.Unlock()
	if err := os.Remove(d.logPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return d.syncDir()
}

// Close implements Store, closing every open log.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var firstErr error
	for id, f := range d.logs {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(d.logs, id)
	}
	return firstErr
}
