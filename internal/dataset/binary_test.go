package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	orig := Generate(SyntheticConfig{NumRows: 300, NumFeatures: 500, AvgNNZ: 15, Seed: 21, Zipf: 1.3})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatal("binary round trip changed the dataset")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.bin")
	orig := Generate(SyntheticConfig{NumRows: 100, NumFeatures: 80, AvgNNZ: 8, Seed: 23})
	if err := WriteBinaryFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatal("file round trip changed the dataset")
	}
	if _, err := ReadBinaryFile(path + ".missing"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestBinaryEmptyDataset(t *testing.T) {
	b := NewBuilder(5)
	empty := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, empty); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 || back.NumFeatures != 5 {
		t.Fatalf("empty round trip: %d rows, %d features", back.NumRows(), back.NumFeatures)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOPE" + string(make([]byte, 60))),
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// valid header but truncated payload
	d := Generate(SyntheticConfig{NumRows: 10, NumFeatures: 20, AvgNNZ: 4, Seed: 25})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// corrupting an index (out-of-range feature id) is caught by Validate
	raw := buf.Bytes()
	h := binaryHeader{rows: uint64(d.NumRows()), features: uint64(d.NumFeatures), nnz: uint64(d.NNZ())}
	cp := append([]byte(nil), raw...)
	cp[h.indicesOff()+1] = 0xFF // index becomes huge
	if _, err := ReadBinary(bytes.NewReader(cp)); err == nil {
		t.Fatal("corrupt index accepted")
	}
	// the pristine copy still reads fine
	if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
		t.Fatalf("baseline read failed: %v", err)
	}
}

func TestBinaryHeaderSanityCap(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	buf.Write([]byte{1, 0, 0, 0})             // version
	buf.Write(bytes.Repeat([]byte{0xFF}, 24)) // absurd rows/features/nnz
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("absurd header accepted")
	}
}

func TestReadBinaryChunks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.bin")
	orig := Generate(SyntheticConfig{NumRows: 257, NumFeatures: 120, AvgNNZ: 9, Seed: 27, Zipf: 1.2})
	if err := WriteBinaryFile(path, orig); err != nil {
		t.Fatal(err)
	}
	for _, chunkRows := range []int{1, 7, 100, 257, 1000} {
		covered := 0
		err := ReadBinaryChunks(path, chunkRows, func(lo, hi int, chunk *Dataset) error {
			if lo != covered {
				t.Fatalf("chunkRows=%d: gap at %d", chunkRows, lo)
			}
			covered = hi
			if err := chunk.Validate(); err != nil {
				return err
			}
			if chunk.NumFeatures != orig.NumFeatures {
				t.Fatalf("chunk features %d", chunk.NumFeatures)
			}
			for i := 0; i < chunk.NumRows(); i++ {
				want := orig.Row(lo + i)
				got := chunk.Row(i)
				if got.Label != want.Label || !reflect.DeepEqual(got.Indices, want.Indices) {
					t.Fatalf("chunkRows=%d: row %d differs", chunkRows, lo+i)
				}
				for j := range want.Values {
					if got.Values[j] != want.Values[j] {
						t.Fatalf("chunkRows=%d: row %d value %d differs", chunkRows, lo+i, j)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("chunkRows=%d: %v", chunkRows, err)
		}
		if covered != 257 {
			t.Fatalf("chunkRows=%d: covered %d rows", chunkRows, covered)
		}
	}
}

func TestReadBinaryChunksErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.bin")
	orig := Generate(SyntheticConfig{NumRows: 20, NumFeatures: 10, AvgNNZ: 3, Seed: 29})
	if err := WriteBinaryFile(path, orig); err != nil {
		t.Fatal(err)
	}
	if err := ReadBinaryChunks(path, 0, nil); err == nil {
		t.Fatal("chunkRows=0 should fail")
	}
	if err := ReadBinaryChunks(path+".missing", 5, nil); err == nil {
		t.Fatal("missing file should fail")
	}
	// callback error propagates and stops iteration
	calls := 0
	sentinel := os.ErrClosed
	err := ReadBinaryChunks(path, 5, func(lo, hi int, chunk *Dataset) error {
		calls++
		return sentinel
	})
	if err != sentinel || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestBinarySmallerThanLibSVM(t *testing.T) {
	d := Generate(SyntheticConfig{NumRows: 500, NumFeatures: 1000, AvgNNZ: 20, Seed: 31, Zipf: 1.3})
	var bin, svm bytes.Buffer
	if err := WriteBinary(&bin, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteLibSVM(&svm, d); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= svm.Len() {
		t.Fatalf("binary %d bytes >= libsvm %d bytes", bin.Len(), svm.Len())
	}
}

func TestBinaryTypedErrors(t *testing.T) {
	d := Generate(SyntheticConfig{NumRows: 40, NumFeatures: 25, AvgNNZ: 5, Seed: 41})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad magic", []byte("NOPE" + string(make([]byte, 60))), ErrBadMagic},
		{"bad version", append([]byte("DIMB\x07\x00\x00\x00"), raw[8:]...), ErrBadVersion},
		{"truncated header", raw[:headerSize-2], ErrTruncated},
		{"truncated payload", raw[:len(raw)-5], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), raw...), 0xAB), ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := ReadBinary(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	// Non-monotone row pointers are structurally corrupt.
	cp := append([]byte(nil), raw...)
	for i := 0; i < 8; i++ {
		cp[headerSize+8+i] = 0xFF
	}
	if _, err := ReadBinary(bytes.NewReader(cp)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-monotone rowPtr: err %v, want ErrCorrupt", err)
	}
	// A lying nnz count is caught against the row-pointer chain.
	lying := append([]byte(nil), raw...)
	lying[24]++
	if _, err := ReadBinary(bytes.NewReader(lying)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("lying nnz: err %v, want ErrCorrupt", err)
	}
}

// ReadBinaryFile knows how many bytes the file holds, so it reads a
// well-formed file into exactly-sized arrays, and a header that promises far
// more than the file contains still costs no more than the file's own size.
func TestReadBinaryFileAllocatesByFileSize(t *testing.T) {
	dir := t.TempDir()
	orig := Generate(SyntheticConfig{NumRows: 3000, NumFeatures: 500, AvgNNZ: 60, Seed: 47})
	path := filepath.Join(dir, "d.bin")
	if err := WriteBinaryFile(path, orig); err != nil {
		t.Fatal(err)
	}
	d, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, d) {
		t.Fatal("ReadBinaryFile differs from the written dataset")
	}
	if len(d.Indices) <= growSlab {
		t.Fatalf("%d nonzeros do not exercise the presized path (growSlab %d)", len(d.Indices), growSlab)
	}
	if cap(d.Indices) != len(d.Indices) || cap(d.Values) != len(d.Values) ||
		cap(d.RowPtr) != len(d.RowPtr) || cap(d.Labels) != len(d.Labels) {
		t.Errorf("arrays regrown: cap/len indices %d/%d values %d/%d rowPtr %d/%d labels %d/%d",
			cap(d.Indices), len(d.Indices), cap(d.Values), len(d.Values),
			cap(d.RowPtr), len(d.RowPtr), cap(d.Labels), len(d.Labels))
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lying := append([]byte(nil), raw[:headerSize+64]...)
	lying[8+4] = 0x40 // rows += 2^38: a 2 TiB row-pointer array is promised
	short := filepath.Join(dir, "lying.bin")
	if err := os.WriteFile(short, lying, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadBinaryFile(short); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying header: err %v, want ErrTruncated", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("lying header made the reader allocate %d bytes for a %d-byte file", got, len(lying))
	}
}

func TestChunkedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.bin")
	orig := Generate(SyntheticConfig{NumRows: 1000, NumFeatures: 200, AvgNNZ: 11, Seed: 43, Zipf: 1.2})
	if err := WriteBinaryFile(path, orig); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenChunked(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if cf.NumRows() != 1000 || cf.NumFeatures() != orig.NumFeatures || cf.NNZ() != orig.NNZ() {
		t.Fatalf("shape %dx%d nnz %d", cf.NumRows(), cf.NumFeatures(), cf.NNZ())
	}
	if cf.NumChunks() != (1000+63)/64 {
		t.Fatalf("chunks %d", cf.NumChunks())
	}
	var totalNNZ, maxBytes int64
	var chunk Dataset
	for c := 0; c < cf.NumChunks(); c++ {
		lo, hi := cf.ChunkBounds(c)
		if cf.ChunkOf(lo) != c || cf.ChunkOf(hi-1) != c {
			t.Fatalf("ChunkOf disagrees with bounds of chunk %d", c)
		}
		totalNNZ += cf.ChunkNNZ(c)
		if b := cf.ChunkBytes(c); b > maxBytes {
			maxBytes = b
		}
		// Reuse one Dataset across reads to exercise buffer recycling.
		if err := cf.ReadChunk(c, &chunk); err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
		if chunk.NumRows() != hi-lo {
			t.Fatalf("chunk %d: %d rows, want %d", c, chunk.NumRows(), hi-lo)
		}
		for i := 0; i < chunk.NumRows(); i++ {
			want, got := orig.Row(lo+i), chunk.Row(i)
			if want.Label != got.Label || !reflect.DeepEqual(want.Indices, got.Indices) || !reflect.DeepEqual(want.Values, got.Values) {
				t.Fatalf("row %d differs", lo+i)
			}
		}
	}
	if totalNNZ != orig.NNZ() {
		t.Fatalf("chunk nnz sum %d, want %d", totalNNZ, orig.NNZ())
	}
	if cf.MaxChunkBytes() != maxBytes {
		t.Fatalf("MaxChunkBytes %d, want %d", cf.MaxChunkBytes(), maxBytes)
	}
	labels, err := cf.ReadLabels()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, orig.Labels) {
		t.Fatal("ReadLabels differs from original labels")
	}
	if err := cf.ReadChunk(cf.NumChunks(), &chunk); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
}

func TestChunkedFileRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	orig := Generate(SyntheticConfig{NumRows: 64, NumFeatures: 40, AvgNNZ: 6, Seed: 47})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := OpenChunked(write("trunc.bin", raw[:len(raw)-3]), 16); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated file: %v, want ErrTruncated", err)
	}
	if _, err := OpenChunked(write("trail.bin", append(append([]byte(nil), raw...), 1, 2, 3)), 16); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: %v, want ErrCorrupt", err)
	}
	bad := append([]byte(nil), raw...)
	for i := 0; i < 8; i++ {
		bad[headerSize+16+i] = 0xFE
	}
	if _, err := OpenChunked(write("ptr.bin", bad), 16); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-monotone rowPtr: %v, want ErrCorrupt", err)
	}
	// Payload corruption (feature index out of range) surfaces at ReadChunk.
	h := binaryHeader{rows: uint64(orig.NumRows()), features: uint64(orig.NumFeatures), nnz: uint64(orig.NNZ())}
	idxBad := append([]byte(nil), raw...)
	idxBad[h.indicesOff()+2] = 0xFF
	cf, err := OpenChunked(write("idx.bin", idxBad), 16)
	if err != nil {
		t.Fatalf("structurally fine file rejected at open: %v", err)
	}
	defer cf.Close()
	var chunk Dataset
	if err := cf.ReadChunk(0, &chunk); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt index: %v, want ErrCorrupt", err)
	}
}
