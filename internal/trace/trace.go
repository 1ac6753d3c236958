// Package trace serialises workload scripts so runs can be recorded,
// shared and replayed bit-exactly: a compact varint binary format (the
// native interchange format of cmd/lelantus-sim's -record/-replay flags)
// and a disassembler for inspection.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"lelantus/internal/workload"
)

// magic identifies the binary format, versioned.
var magic = []byte("LELT1\n")

// maxOps bounds deserialised scripts (a corrupt length must not OOM).
const maxOps = 1 << 28

// Write serialises the script in the binary format.
func Write(w io.Writer, s workload.Script) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(s.Name)))
	if _, err := bw.WriteString(s.Name); err != nil {
		return err
	}
	writeUvarint(bw, uint64(s.Procs))
	writeUvarint(bw, uint64(s.Regions))
	writeVarint(bw, int64(s.MeasureProc))
	writeUvarint(bw, uint64(len(s.Ops)))
	for _, op := range s.Ops {
		if err := bw.WriteByte(byte(op.Kind)); err != nil {
			return err
		}
		writeUvarint(bw, uint64(op.Proc))
		writeUvarint(bw, uint64(op.NewProc))
		writeUvarint(bw, uint64(op.Region))
		writeUvarint(bw, op.Off)
		writeUvarint(bw, op.Bytes)
		writeUvarint(bw, uint64(op.Size))
		bw.WriteByte(op.Val)
		if op.Huge {
			bw.WriteByte(1)
		} else {
			bw.WriteByte(0)
		}
		writeUvarint(bw, op.Ns)
		writeUvarint(bw, uint64(len(op.Procs)))
		for _, p := range op.Procs {
			writeUvarint(bw, uint64(p))
		}
	}
	return bw.Flush()
}

// Read deserialises a binary script.
func Read(r io.Reader) (workload.Script, error) {
	br := bufio.NewReader(r)
	var s workload.Script
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return s, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != string(magic) {
		return s, fmt.Errorf("trace: bad magic %q", head)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return s, err
	}
	if nameLen > 1<<16 {
		return s, fmt.Errorf("trace: absurd name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return s, err
	}
	s.Name = string(name)
	if s.Procs, err = readInt(br); err != nil {
		return s, err
	}
	if s.Regions, err = readInt(br); err != nil {
		return s, err
	}
	mp, err := binary.ReadVarint(br)
	if err != nil {
		return s, err
	}
	s.MeasureProc = int(mp)
	nOps, err := binary.ReadUvarint(br)
	if err != nil {
		return s, err
	}
	if nOps > maxOps {
		return s, fmt.Errorf("trace: absurd op count %d", nOps)
	}
	// The count is only a claim until the ops are read: preallocating it
	// would let a short header commit 96 B × maxOps (24 GiB).
	s.Ops = make([]workload.Op, 0, min(nOps, 1<<16))
	for i := uint64(0); i < nOps; i++ {
		var op workload.Op
		kind, err := br.ReadByte()
		if err != nil {
			return s, fmt.Errorf("trace: op %d: %w", i, err)
		}
		op.Kind = workload.Kind(kind)
		if op.Proc, err = readInt(br); err != nil {
			return s, err
		}
		if op.NewProc, err = readInt(br); err != nil {
			return s, err
		}
		if op.Region, err = readInt(br); err != nil {
			return s, err
		}
		if op.Off, err = binary.ReadUvarint(br); err != nil {
			return s, err
		}
		if op.Bytes, err = binary.ReadUvarint(br); err != nil {
			return s, err
		}
		if op.Size, err = readInt(br); err != nil {
			return s, err
		}
		if op.Val, err = br.ReadByte(); err != nil {
			return s, err
		}
		hb, err := br.ReadByte()
		if err != nil {
			return s, err
		}
		op.Huge = hb != 0
		if op.Ns, err = binary.ReadUvarint(br); err != nil {
			return s, err
		}
		nProcs, err := binary.ReadUvarint(br)
		if err != nil {
			return s, err
		}
		if nProcs > 1<<20 {
			return s, fmt.Errorf("trace: absurd KSM proc count %d", nProcs)
		}
		if nProcs > 0 {
			op.Procs = make([]int, nProcs)
			for j := range op.Procs {
				if op.Procs[j], err = readInt(br); err != nil {
					return s, err
				}
			}
		}
		s.Ops = append(s.Ops, op)
	}
	return s, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func readInt(br *bufio.Reader) (int, error) {
	v, err := binary.ReadUvarint(br)
	return int(v), err
}

// Disassemble prints up to max ops (0 = all) in readable form.
func Disassemble(w io.Writer, s workload.Script, max int) {
	fmt.Fprintf(w, "script %q: %d ops, %d procs, %d regions", s.Name, len(s.Ops), s.Procs, s.Regions)
	if s.MeasureProc >= 0 {
		fmt.Fprintf(w, ", measures p%d", s.MeasureProc)
	}
	fmt.Fprintln(w)
	for i, op := range s.Ops {
		if max > 0 && i >= max {
			fmt.Fprintf(w, "... %d more ops\n", len(s.Ops)-i)
			return
		}
		fmt.Fprintf(w, "%8d  %s\n", i, op)
	}
}
