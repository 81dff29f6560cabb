package record

import (
	"bytes"
	"testing"
	"time"

	"flordb/internal/relation"
)

// FuzzRecordDecode feeds arbitrary bytes through the WAL line decoder:
// Decode must never panic, must keep the decode contract against the
// encoding/json reference (accept only what it accepts, with an equal
// record), and any line it accepts must re-encode and decode to the same
// record (the round-trip the WAL depends on).
func FuzzRecordDecode(f *testing.F) {
	seeds := []any{
		&LogRecord{Kind: KindLog, ProjID: "p", Tstamp: 3, Filename: "train.flow", CtxID: 7, ValueName: "acc", Value: "0.93", ValueType: VTFloat, Wall: time.Unix(1700000000, 0).UTC()},
		&LoopRecord{Kind: KindLoop, ProjID: "p", Tstamp: 1, Filename: "train.flow", CtxID: 2, ParentCtxID: 1, LoopName: "epoch", LoopIter: 4, IterValue: "4"},
		&ArgRecord{Kind: KindArg, ProjID: "p", Tstamp: 1, Filename: "train.flow", Name: "lr", Value: "0.01"},
		&CkptRecord{Kind: KindCkpt, ProjID: "p", Tstamp: 2, Filename: "train.flow", CtxID: 9, Name: "ckpt::epoch::4", BlobKey: "deadbeef"},
		&CommitRecord{Kind: KindCommit, ProjID: "p", Tstamp: 5, VID: "v123"},
	}
	for _, rec := range seeds {
		line, err := Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"kind":"log"`))   // torn
	f.Add([]byte(`{"kind":"nope"}`)) // unknown kind
	f.Add([]byte(`{"kind":"log","tstamp":"NaN"}`))
	f.Add([]byte(`{"kind":"log","value":"\ud83d\ude00 \ud800 \u003c\u2028 \"\\\/\b\f\n\r\t","tstamp":-9223372036854775808}`))
	f.Add([]byte(`{"kind":"commit","wall":"2024-02-29T23:59:59.5+05:30","vid":"\u0000"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
		rec, err := Decode(data)
		if err != nil {
			return
		}
		line, err := Encode(rec)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		rec2, err := Decode(line)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		b1, _ := Encode(rec)
		b2, _ := Encode(rec2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("round trip diverged:\n%s\n%s", b1, b2)
		}
	})
}

// FuzzSnapshotRead feeds arbitrary bytes through the snapshot reader: it
// must never panic and must leave the destination tables untouched on error.
func FuzzSnapshotRead(f *testing.F) {
	tables, err := CreateTables(relation.NewDatabase())
	if err != nil {
		f.Fatal(err)
	}
	if err := tables.Apply(&LogRecord{Kind: KindLog, ProjID: "p", Tstamp: 1, Filename: "f", ValueName: "acc", Value: "1", ValueType: VTInt}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Version: SnapshotVersion, Seq: 1, MaxTstamp: 1}, tables); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("FLORSNAP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dst, err := CreateTables(relation.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(data, dst); err != nil {
			for _, tbl := range dst.snapshotTables() {
				if tbl.Len() != 0 {
					t.Fatalf("failed load dirtied table %s", tbl.Name())
				}
			}
		}
	})
}
