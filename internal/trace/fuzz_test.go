package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzTraceDecoder hammers Decode and the cursor walk with arbitrary
// bytes. The contract under fuzz: a typed *DecodeError (or a clean
// decode), never a panic, never an allocation sized by an untrusted
// length or count field. When the input does decode, walking it must
// terminate and a second decode must agree — Decode is a pure function
// of the bytes.
func FuzzTraceDecoder(f *testing.F) {
	// Seed corpus: a small valid trace, its torn-final-batch prefix, a
	// bad magic, a huge claimed payload length, and a huge run count.
	var buf bytes.Buffer
	w := NewWriter(&buf, 0xabc, 3, 64)
	w.Load(0x1000, 7)
	w.Load(0x1008, 9)
	w.Store(0x2000)
	w.Lib(1)
	w.Lock(0x3000)
	w.Unlock(0x3000)
	w.Alloc(0x4000, 64)
	w.Free(0x4000)
	w.Spawn(1)
	w.Join(1)
	w.EndBatch(0, 12, 2)
	w.EndBatch(1, 3, 0)
	w.End(0)
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // torn final batch
	f.Add([]byte("NOTATRACE tail"))
	huge := append([]byte{}, valid[:len(Magic)+1+8+1+1]...)
	huge = append(huge, recBatch, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	f.Add(huge)
	f.Add(hugeRunTrace())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("Decode returned untyped error %T: %v", err, err)
			}
			return
		}
		// A decoded trace must be walkable, and re-decoding the same
		// bytes must succeed with identical stats. A run may claim far
		// more events than the input has bytes, so the walk reads at
		// most 64 events per input byte and NextRecord skips the rest.
		budget, walked := 64*len(data), uint64(0)
		c := tr.Cursor()
		for {
			rec, err := c.NextRecord()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("validated trace failed to walk: %v", err)
			}
			if rec.Kind != RecBatch {
				continue
			}
			for ; budget > 0; budget-- {
				if _, err := c.Next(); err != nil {
					if err == ErrBatchDrained {
						break
					}
					t.Fatalf("validated batch failed to walk: %v", err)
				}
				walked++
			}
		}
		// A walk that fit the budget returned every event Decode counted.
		if budget > 0 && walked != tr.Stats().Events {
			t.Fatalf("walked %d events, Decode counted %d", walked, tr.Stats().Events)
		}
		tr2, err := Decode(data)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if tr.Stats() != tr2.Stats() {
			t.Fatalf("decode not deterministic: %+v vs %+v", tr.Stats(), tr2.Stats())
		}
	})
}
