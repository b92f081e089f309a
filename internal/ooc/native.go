package ooc

import (
	"os"
	"unsafe"
)

// pageSize is the mmap alignment unit; every spill segment starts on a page
// boundary so mapped regions can be reinterpreted as typed slices.
var pageSize = int64(os.Getpagesize())

// alignPage rounds n up to a page multiple.
func alignPage(n int64) int64 {
	return (n + pageSize - 1) &^ (pageSize - 1)
}

// The spill file is written in the process's native byte order and read back
// by the same process within the same run (it is unlinked scratch, never an
// interchange format), so segments are written from and read back into typed
// views in place. Offsets inside a segment keep natural alignment: int64s at
// 0, int32s after (rows+1)×8, uint16s after nnz×4 — all fine on a page or
// an 8-byte aligned base.

func castI64(b []byte, n int) []int64 {
	if n == 0 {
		return []int64{}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
}

func castI32(b []byte, n int) []int32 {
	if n == 0 {
		return []int32{}
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

func castU16(b []byte, n int) []uint16 {
	if n == 0 {
		return []uint16{}
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), n)
}

// alignedBytes returns n zeroed bytes on an 8-byte boundary (backed by
// int64s), so a segment's sections can be typed views of them.
func alignedBytes(n int64) []byte {
	if n == 0 {
		return []byte{}
	}
	w := make([]int64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n)
}
