package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary dataset format — the paper's data-reading module (§7.1) provides
// memory, disk, and memory-and-disk levels; this file implements the
// on-disk representation: a compact columnar layout that loads an order of
// magnitude faster than LibSVM text and supports chunked (out-of-core)
// reading for datasets larger than memory.
//
// Layout (little-endian):
//
//	magic   "DIMB"            4 bytes
//	version u32               currently 1
//	rows    u64
//	features u64
//	nnz     u64
//	rowPtr  (rows+1)×u64
//	labels  rows×f32
//	indices nnz×u32
//	values  nnz×f32

var binaryMagic = [4]byte{'D', 'I', 'M', 'B'}

const binaryVersion = 1

// Typed read errors. Every failure mode of the binary reader wraps one of
// these, so callers (and the out-of-core trainer) can distinguish a
// truncated file from a structurally corrupt one without string matching.
var (
	// ErrTruncated reports a file or stream that ends before the payload
	// its header promises.
	ErrTruncated = errors.New("dataset: binary data truncated")
	// ErrBadMagic reports a stream that does not start with "DIMB".
	ErrBadMagic = errors.New("dataset: bad binary magic")
	// ErrBadVersion reports an unsupported format version.
	ErrBadVersion = errors.New("dataset: unsupported binary version")
	// ErrCorrupt reports a structurally invalid payload: implausible or
	// inconsistent header counts, non-monotone row pointers, out-of-range
	// feature indices, or non-finite values.
	ErrCorrupt = errors.New("dataset: corrupt binary data")
)

// binaryHeader is the fixed-size file prefix.
type binaryHeader struct {
	rows, features, nnz uint64
}

const headerSize = 4 + 4 + 8 + 8 + 8

func (h binaryHeader) rowPtrOff() int64 { return headerSize }
func (h binaryHeader) labelsOff() int64 { return h.rowPtrOff() + int64(h.rows+1)*8 }
func (h binaryHeader) indicesOff() int64 {
	return h.labelsOff() + int64(h.rows)*4
}
func (h binaryHeader) valuesOff() int64 {
	return h.indicesOff() + int64(h.nnz)*4
}
func (h binaryHeader) fileSize() int64 { return h.valuesOff() + int64(h.nnz)*4 }

// WriteBinary writes the dataset in the binary format.
func WriteBinary(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var scratch [8]byte
	put32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	put64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	if err := put32(binaryVersion); err != nil {
		return err
	}
	if err := put64(uint64(d.NumRows())); err != nil {
		return err
	}
	if err := put64(uint64(d.NumFeatures)); err != nil {
		return err
	}
	if err := put64(uint64(d.NNZ())); err != nil {
		return err
	}
	for _, p := range d.RowPtr {
		if err := put64(uint64(p)); err != nil {
			return err
		}
	}
	for _, l := range d.Labels {
		if err := put32(float32bits(l)); err != nil {
			return err
		}
	}
	for _, idx := range d.Indices {
		if err := put32(uint32(idx)); err != nil {
			return err
		}
	}
	for _, v := range d.Values {
		if err := put32(float32bits(v)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinaryFile writes the dataset to a binary file.
func WriteBinaryFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readHeader parses and validates the fixed prefix.
func readHeader(r io.Reader) (binaryHeader, error) {
	var buf [headerSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return binaryHeader{}, fmt.Errorf("%w: binary header: %v", ErrTruncated, err)
	}
	if [4]byte(buf[:4]) != binaryMagic {
		return binaryHeader{}, fmt.Errorf("%w: got %q", ErrBadMagic, buf[:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != binaryVersion {
		return binaryHeader{}, fmt.Errorf("%w: version %d, want %d", ErrBadVersion, v, binaryVersion)
	}
	h := binaryHeader{
		rows:     binary.LittleEndian.Uint64(buf[8:16]),
		features: binary.LittleEndian.Uint64(buf[16:24]),
		nnz:      binary.LittleEndian.Uint64(buf[24:32]),
	}
	const sane = 1 << 40
	if h.rows > sane || h.features > sane || h.nnz > sane {
		return binaryHeader{}, fmt.Errorf("%w: implausible header %+v", ErrCorrupt, h)
	}
	return h, nil
}

// validateRowPtr checks that a row-pointer array is a monotone prefix-sum
// chain from 0 to nnz.
func validateRowPtr(rowPtr []int64, nnz uint64) error {
	if len(rowPtr) == 0 || rowPtr[0] != 0 {
		return fmt.Errorf("%w: RowPtr[0] != 0", ErrCorrupt)
	}
	prev := int64(0)
	for i, p := range rowPtr {
		if p < prev {
			return fmt.Errorf("%w: RowPtr not monotone at row %d (%d < %d)", ErrCorrupt, i, p, prev)
		}
		prev = p
	}
	if uint64(prev) != nnz {
		return fmt.Errorf("%w: RowPtr[rows]=%d, header nnz=%d", ErrCorrupt, prev, nnz)
	}
	return nil
}

// ReadBinary loads a full dataset from the binary format (the "memory"
// storage level).
func ReadBinary(r io.Reader) (*Dataset, error) { return readBinary(r, 0) }

// readBinary is ReadBinary over a source known to hold size bytes (0 when
// unknown).
func readBinary(r io.Reader, size int64) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	d := &Dataset{NumFeatures: int(h.features)}
	// Arrays grow as bytes actually arrive (growU64s and friends), so a
	// header promising petabytes fails with ErrTruncated instead of
	// attempting the full allocation up front. An array's first allocation
	// may still be as large as the source itself could fill: a well-formed
	// file is read into exactly-sized arrays, with no regrowth to copy.
	if d.RowPtr, err = growU64s(br, int(h.rows)+1, firstCap(size, 8)); err != nil {
		return nil, err
	}
	if err := validateRowPtr(d.RowPtr, h.nnz); err != nil {
		return nil, err
	}
	if d.Labels, err = growF32s(br, int(h.rows), firstCap(size, 4)); err != nil {
		return nil, err
	}
	if d.Indices, err = growI32s(br, int(h.nnz), firstCap(size, 4)); err != nil {
		return nil, err
	}
	if d.Values, err = growF32s(br, int(h.nnz), firstCap(size, 4)); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes past the payload", ErrCorrupt)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return d, nil
}

// ReadBinaryFile loads a binary dataset file.
func ReadBinaryFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readBinary(f, fi.Size())
}

// ReadBinaryChunks streams a binary dataset file in row chunks of at most
// chunkRows without materializing the whole file — the "disk" storage
// level, for out-of-core preprocessing and sharding. fn receives each chunk
// (a self-contained Dataset whose rows are the global range [lo, hi)) and
// may return an error to stop.
func ReadBinaryChunks(path string, chunkRows int, fn func(lo, hi int, chunk *Dataset) error) error {
	cf, err := OpenChunked(path, chunkRows)
	if err != nil {
		return err
	}
	defer cf.Close()
	for c := 0; c < cf.NumChunks(); c++ {
		lo, hi := cf.ChunkBounds(c)
		chunk := new(Dataset)
		if err := cf.ReadChunk(c, chunk); err != nil {
			return err
		}
		if err := fn(lo, hi, chunk); err != nil {
			return err
		}
	}
	return nil
}

// --- raw array readers ---------------------------------------------------

// growSlab is the element count read per step by the incremental readers:
// large enough to amortize, small enough that a lying header never triggers
// a giant allocation.
const growSlab = 1 << 17

// firstCap bounds an incremental reader's first allocation, in elements of
// elem bytes: growSlab, or what a source of size bytes could hold if larger.
func firstCap(size int64, elem int) int {
	return max(growSlab, int(size/int64(elem)))
}

// growU64s reads n little-endian u64s, growing the destination as data
// arrives so truncated streams fail before allocating the promised total;
// first caps the initial allocation.
func growU64s(r io.Reader, n, first int) ([]int64, error) {
	dst := make([]int64, 0, min(n, first))
	var buf [8 * 1024]byte
	for len(dst) < n {
		want := min(n-len(dst), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:want*8]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		for i := 0; i < want; i++ {
			dst = append(dst, int64(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return dst, nil
}

func growI32s(r io.Reader, n, first int) ([]int32, error) {
	dst := make([]int32, 0, min(n, first))
	var buf [4 * 2048]byte
	for len(dst) < n {
		want := min(n-len(dst), len(buf)/4)
		if _, err := io.ReadFull(r, buf[:want*4]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		for i := 0; i < want; i++ {
			dst = append(dst, int32(binary.LittleEndian.Uint32(buf[i*4:])))
		}
	}
	return dst, nil
}

func growF32s(r io.Reader, n, first int) ([]float32, error) {
	dst := make([]float32, 0, min(n, first))
	var buf [4 * 2048]byte
	for len(dst) < n {
		want := min(n-len(dst), len(buf)/4)
		if _, err := io.ReadFull(r, buf[:want*4]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		for i := 0; i < want; i++ {
			dst = append(dst, float32frombits(binary.LittleEndian.Uint32(buf[i*4:])))
		}
	}
	return dst, nil
}

func readU64sAt(f *os.File, off int64, dst []int64) error {
	buf := make([]byte, 8*len(dst))
	if len(buf) == 0 {
		return nil
	}
	if _, err := f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

func readI32sAt(f *os.File, off int64, dst []int32) error {
	buf := make([]byte, 4*len(dst))
	if len(buf) == 0 {
		return nil
	}
	if _, err := f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return nil
}

func readF32sAt(f *os.File, off int64, dst []float32) error {
	buf := make([]byte, 4*len(dst))
	if len(buf) == 0 {
		return nil
	}
	if _, err := f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	for i := range dst {
		dst[i] = float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return nil
}

func float32bits(f float32) uint32     { return math.Float32bits(f) }
func float32frombits(b uint32) float32 { return math.Float32frombits(b) }
