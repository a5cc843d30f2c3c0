package pagestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestDecodeFrameRejects(t *testing.T) {
	good := encodeFrame(nil, recExtent, 7, 2, []byte("payload"))
	if _, n, err := decodeFrame(good); err != nil || n != len(good) {
		t.Fatalf("decode of valid frame: n=%d err=%v", n, err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", good[:frameHeaderLen-1]},
		{"truncated payload", good[:len(good)-frameCRCLen-2]},
		{"truncated crc", good[:len(good)-1]},
		{"unknown kind", append([]byte{'Z'}, good[1:]...)},
		{"flipped payload byte", flipByte(good, frameHeaderLen)},
		{"flipped crc byte", flipByte(good, len(good)-1)},
		{"zero-page extent", encodeFrame(nil, recExtent, 7, 0, []byte("payload"))},
		{"oversized length field", oversized()},
	}
	for _, tc := range cases {
		if _, _, err := decodeFrame(tc.data); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: err = %v, want errBadFrame", tc.name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}

// oversized builds a frame whose length field exceeds maxFramePayload with a
// valid CRC, so only the length guard can reject it.
func oversized() []byte {
	b := encodeFrame(nil, recMeta, 0, 0, nil)
	b[13], b[14], b[15], b[16] = 0xff, 0xff, 0xff, 0xff
	// Recompute the CRC over the doctored header.
	sum := Checksum(b[:frameHeaderLen])
	b[17] = byte(sum)
	b[18] = byte(sum >> 8)
	b[19] = byte(sum >> 16)
	b[20] = byte(sum >> 24)
	return b
}

// FuzzWALDecode feeds arbitrary bytes to the recovery path. The invariants:
// replay never panics, never reports more committed bytes than it was given,
// and opening the bytes as a segment recovers exactly what replayLog does.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFrame(nil, recCommit, 0, 0, nil))
	log := encodeFrame(nil, recExtent, 0, 1, []byte("seed extent"))
	log = encodeFrame(log, recMeta, 0, 0, []byte("seed meta"))
	log = encodeFrame(log, recCommit, 0, 0, nil)
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add([]byte{'E', 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		extents := make(map[int64]Extent)
		var meta []byte
		st := replayLog(data, func(op logOp) {
			switch op.kind {
			case recExtent:
				extents[op.start] = op.ext
			case recFree:
				delete(extents, op.start)
			case recMeta:
				meta = op.meta
			}
		})
		if st.committed < 0 || st.committed > int64(len(data)) {
			t.Fatalf("committed offset %d outside [0, %d]", st.committed, len(data))
		}
		for start, ext := range extents {
			if ext.Sum != Checksum(ext.Data) {
				t.Fatalf("recovered extent %d with stale checksum", start)
			}
			if ext.Pages <= 0 {
				t.Fatalf("recovered extent %d with %d pages", start, ext.Pages)
			}
		}
		// The same bytes as the only segment of a log must recover the
		// same committed prefix.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SegmentFileName(1)), data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		w, err := OpenSegmentedWAL(SegWALConfig{Dir: dir})
		if err != nil {
			t.Fatalf("OpenSegmentedWAL on fuzz input: %v", err)
		}
		defer w.Close()
		count := 0
		w.Range(func(start int64, ext Extent) bool {
			count++
			want, ok := extents[start]
			if !ok || !bytes.Equal(want.Data, ext.Data) {
				t.Fatalf("OpenSegmentedWAL and replayLog disagree on extent %d", start)
			}
			return true
		})
		if count != len(extents) {
			t.Fatalf("OpenSegmentedWAL recovered %d extents, replayLog %d", count, len(extents))
		}
		if !bytes.Equal(w.Meta(), meta) {
			t.Fatalf("OpenSegmentedWAL meta %q, replayLog %q", w.Meta(), meta)
		}
		if got := w.Stats().RecoveredBytes; got != st.committed {
			t.Fatalf("OpenSegmentedWAL recovered %d bytes, replayLog %d", got, st.committed)
		}
	})
}
