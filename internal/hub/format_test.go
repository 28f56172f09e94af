package hub

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/outbox"
	"simba/internal/plog"
)

// TestHubRefusesOldLaneDirectory: every lane directory a hub ever wrote
// has a SIMBAW1 base segment beside its "<WALPath>.laneNN" files, so the
// journal's format check refuses it — New fails with plog.ErrFormat and
// every file stays byte-identical, the lane files' owed records
// included.
func TestHubRefusesOldLaneDirectory(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "hub.wal")
	for name, content := range map[string]string{
		"hub.wal.00000001.seg":        "SIMBAW1\n\x16\x00\x00\x00Rxxxxxxxx\x01\x00\x00\x00kxxxx",
		"hub.wal.lane01.00000001.seg": "SIMBAW1\n\x16\x00\x00\x00Rxxxxxxxx\x01\x00\x00\x00owed",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirFiles(t, dir)
	_, err := New(Config{
		Clock: clock.NewReal(), WALPath: walPath, Channels: newRecordingSink().channels(),
	})
	if !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("New on an old lane directory = %v; want plog.ErrFormat", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused New changed the directory: %q -> %q", before, after)
	}
}

// TestHubRefusesTextPayloadDirectory: a SIMBAW2 WAL and outbox journal
// an older build wrote hold alerts as wire text. Replaying one through
// the binary decoder would tombstone an acked alert as unparsable, so
// New and outbox.Open both refuse the directory with plog.ErrFormat and
// leave every file byte-identical.
func TestHubRefusesTextPayloadDirectory(t *testing.T) {
	dir := t.TempDir()
	walPath, outboxPath := filepath.Join(dir, "hub.wal"), filepath.Join(dir, "hub.outbox")
	a := portalAlert(1, time.Unix(985597200, 0))
	wire, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	for path, rec := range map[string]plog.Record{
		walPath:    {Key: "user-0" + keySep + a.DedupKey(), Payload: wire},
		outboxPath: {Key: "user-0" + keySep + a.DedupKey() + keySep + "0", Payload: []byte("SIMBA-OUTBOX/1\nUSER: user-0\nALERT:\n" + string(wire))},
	} {
		l, err := plog.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.LogReceived(rec.Key, rec.Payload, time.Now()); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stampVersion(t, dir, "SIMBAW2\n", "CKPT 3 ") // the frames are unchanged since SIMBAW2
	before := dirFiles(t, dir)
	if _, err := New(Config{
		Clock: clock.NewReal(), WALPath: walPath, Channels: newRecordingSink().channels(),
	}); !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("New on a SIMBAW2 directory = %v; want plog.ErrFormat", err)
	}
	if _, err := outbox.Open(outbox.Options{Clock: clock.NewReal(), Path: outboxPath}); !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("outbox.Open on a SIMBAW2 journal = %v; want plog.ErrFormat", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused opens changed the directory: %q -> %q", before, after)
	}
}

// TestHubRefusesSeparateOutboxDirectory: a SIMBAW3 hub directory keeps
// its pending envelopes in a second journal at OutboxPath, which this
// build never opens; replaying its WAL alone would drop them silently.
// New refuses the directory with plog.ErrFormat, and every file — the
// outbox journal's owed envelope included — stays byte-identical.
func TestHubRefusesSeparateOutboxDirectory(t *testing.T) {
	dir := t.TempDir()
	walPath, outboxPath := filepath.Join(dir, "hub.wal"), filepath.Join(dir, "hub.outbox")
	a := portalAlert(1, time.Unix(985597200, 0))
	rec, err := a.AppendRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("user-1"+keySep+a.DedupKey(), rec, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ob, err := outbox.Open(outbox.Options{Clock: clock.NewReal(), Path: outboxPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.Put(outbox.Entry{User: "user-0", Category: "Investment", Alert: a}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	stampVersion(t, dir, "SIMBAW3\n", "CKPT 4 ")
	before := dirFiles(t, dir)
	if _, err := New(Config{
		Clock: clock.NewReal(), WALPath: walPath, Channels: newRecordingSink().channels(),
	}); !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("New on a SIMBAW3 directory = %v; want plog.ErrFormat", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused New changed the directory: %q -> %q", before, after)
	}
}

// TestHubRefusesUnkeyedRecordDirectory: a SIMBAW4 WAL holds an alert
// record and an outbox envelope that each repeat what their keys hold,
// which this build's decoder would misread as the record's first fields.
// New and outbox.Open both refuse the directory with plog.ErrFormat and
// leave every file — the owed alert and envelope included —
// byte-identical.
func TestHubRefusesUnkeyedRecordDirectory(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "hub.wal")
	a := portalAlert(1, time.Unix(985597200, 0))
	rec, err := a.AppendRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("user-1"+keySep+a.DedupKey(), rec, time.Now()); err != nil {
		t.Fatal(err)
	}
	ob := outbox.New(l, outbox.Options{Clock: clock.NewReal()})
	if err := ob.Put(outbox.Entry{User: "user-0", Category: "Investment", Alert: a}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil { // the envelope and the alert in a checkpoint as well
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stampVersion(t, dir, "SIMBAW4\n", "CKPT 5 ")
	before := dirFiles(t, dir)
	if _, err := New(Config{
		Clock: clock.NewReal(), WALPath: walPath, Channels: newRecordingSink().channels(),
	}); !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("New on a SIMBAW4 directory = %v; want plog.ErrFormat", err)
	}
	if _, err := outbox.Open(outbox.Options{Clock: clock.NewReal(), Path: walPath}); !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("outbox.Open on a SIMBAW4 journal = %v; want plog.ErrFormat", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused opens changed the directory: %q -> %q", before, after)
	}
}

// stampVersion rewrites every journal file in dir, written by this
// build, as an older build's: magic opens its segments and ckpt its
// checkpoints' headers.
func stampVersion(t *testing.T, dir, magic, ckpt string) {
	t.Helper()
	for name, data := range dirFiles(t, dir) {
		old := strings.Replace(strings.Replace(data, "SIMBAW5\n", magic, 1), "CKPT 6 ", ckpt, 1)
		if old == data {
			t.Fatalf("%s is neither a SIMBAW5 segment nor a CKPT 6 checkpoint", name)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirFiles maps every file in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}
