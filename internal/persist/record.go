package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/shard"
)

// WAL record framing. Every store mutation becomes one framed record:
//
//	uint32 LE payload length | uint32 LE CRC-32C(payload) | payload
//	payload: op byte | uvarint shard | uvarint seq | offer bytes
//
// The offer bytes are the existing FXO1/FXO2 one-offer binary stream
// (flexoffer.AppendBinary) for add/replace records, and absent for
// delete/reset — the WAL invents no second offer encoding, so any FXO
// reader can open a log payload. The CRC is over the payload only: the
// length field is validated implicitly by the CRC failing when a torn
// write corrupts it, and explicitly by the sanity cap below.
//
// Both directions work in place on byte slices. appendRecord reserves
// the 8-byte header, appends the payload — offer included — after it
// and then fills in length and CRC, so an append batch or a snapshot is
// one growing buffer. Replay frame-scans a whole file (scanFrames,
// presized by a length-only pass) and decodeMutation decodes each body
// with flexoffer's slice decoder: the offer, its ID (and zone) string
// and its slices are a record's only allocations, and none of them
// points into the file buffer.

// Record framing errors.
var (
	// ErrCorruptRecord marks a record whose frame or payload fails
	// validation somewhere other than a tolerable torn tail.
	ErrCorruptRecord = errors.New("persist: corrupt WAL record")
	// errTornRecord marks a final record cut short by a crash — the one
	// corruption recovery silently drops.
	errTornRecord = errors.New("persist: torn WAL record")
)

const (
	// frameHeaderLen is the length + CRC prefix of every record.
	frameHeaderLen = 8
	// maxPayloadBytes caps a single record payload (a single offer plus
	// a few varints; 64 MiB is far beyond any valid offer and cheap
	// insurance against a garbage length field scanning as "read 4 GiB").
	maxPayloadBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends m as one framed record to dst. The payload is
// encoded in place after a placeholder header, which is filled in once
// the payload's length and CRC are known.
func appendRecord(dst []byte, m shard.Mutation) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = append(dst, byte(m.Op))
	dst = binary.AppendUvarint(dst, uint64(m.Shard))
	dst = binary.AppendUvarint(dst, m.Seq)
	switch m.Op {
	case shard.OpAdd, shard.OpReplace:
		var err error
		if dst, err = m.Offer.AppendBinary(dst); err != nil {
			return nil, err
		}
	case shard.OpDelete, shard.OpReset:
		// No body.
	default:
		return nil, fmt.Errorf("persist: cannot encode op %s", m.Op)
	}
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst, nil
}

// rawRecord is a frame-scanned record whose offer body has not been
// decoded yet — the unit the parallel replay decoder fans out over.
type rawRecord struct {
	op         shard.Op
	shardIndex int
	seq        uint64
	body       []byte // FXO bytes for add/replace, empty otherwise
}

// splitRecord parses a verified payload into its fields, leaving the
// offer body undecoded.
func splitRecord(payload []byte) (rawRecord, error) {
	if len(payload) == 0 {
		return rawRecord{}, fmt.Errorf("%w: empty payload", ErrCorruptRecord)
	}
	op := shard.Op(payload[0])
	rest := payload[1:]
	shardIndex, n := binary.Uvarint(rest)
	if n <= 0 {
		return rawRecord{}, fmt.Errorf("%w: bad shard varint", ErrCorruptRecord)
	}
	rest = rest[n:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return rawRecord{}, fmt.Errorf("%w: bad seq varint", ErrCorruptRecord)
	}
	rest = rest[n:]
	switch op {
	case shard.OpAdd, shard.OpReplace:
		if len(rest) == 0 {
			return rawRecord{}, fmt.Errorf("%w: %s record without offer body", ErrCorruptRecord, op)
		}
	case shard.OpDelete, shard.OpReset:
		if len(rest) != 0 {
			return rawRecord{}, fmt.Errorf("%w: %s record with %d stray bytes", ErrCorruptRecord, op, len(rest))
		}
	default:
		return rawRecord{}, fmt.Errorf("%w: unknown op %d", ErrCorruptRecord, payload[0])
	}
	return rawRecord{op: op, shardIndex: int(shardIndex), seq: seq, body: rest}, nil
}

// decodeMutation turns a raw record into the mutation it logs, decoding
// the offer body.
func decodeMutation(r rawRecord) (shard.Mutation, error) {
	m := shard.Mutation{Op: r.op, Shard: r.shardIndex, Seq: r.seq}
	if r.op == shard.OpAdd || r.op == shard.OpReplace {
		f := new(flexoffer.FlexOffer)
		if err := f.UnmarshalBinary(r.body); err != nil {
			return shard.Mutation{}, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
		}
		m.Offer = f
	}
	return m, nil
}

// scanFrames walks the framed records in data, appending each verified
// payload's raw record to recs. It returns the records, the byte length
// of the verified prefix, and how the scan ended:
//
//   - err == nil: data ends exactly at a record boundary.
//   - errors.Is(err, errTornRecord): the final record is truncated or
//     fails its CRC with no bytes after it — the shape a crash leaves.
//     goodLen is the boundary to truncate back to; recs holds every
//     record before the tear.
//   - errors.Is(err, ErrCorruptRecord): a record in the middle of the
//     data is bad. Nothing distinguishes this from lost writes, so the
//     caller must fail loudly.
func scanFrames(data []byte, recs []rawRecord) ([]rawRecord, int64, error) {
	recs = slices.Grow(recs, countFrames(data))
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return recs, int64(off), fmt.Errorf("%w: %d trailing bytes", errTornRecord, len(data)-off)
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxPayloadBytes {
			// A crash tears a frame by truncation, so a fully present
			// length field always holds the value the writer framed —
			// an implausible one means the bytes themselves changed.
			return recs, int64(off), fmt.Errorf("%w: implausible record length %d", ErrCorruptRecord, length)
		}
		end := off + frameHeaderLen + length
		if end > len(data) {
			return recs, int64(off), fmt.Errorf("%w: record cut at %d of %d bytes", errTornRecord, len(data)-off-frameHeaderLen, length)
		}
		payload := data[off+frameHeaderLen : end]
		if crc32.Checksum(payload, crcTable) != sum {
			if end == len(data) {
				// CRC failure on the very last record with nothing after
				// it: a torn final write.
				return recs, int64(off), fmt.Errorf("%w: CRC mismatch on final record", errTornRecord)
			}
			return recs, int64(off), fmt.Errorf("%w: CRC mismatch %d bytes before end", ErrCorruptRecord, len(data)-end)
		}
		r, err := splitRecord(payload)
		if err != nil {
			return recs, int64(off), err
		}
		recs = append(recs, r)
		off = end
	}
	return recs, int64(off), nil
}

// countFrames counts the whole frames data's length fields chain
// through, without checking CRCs — a cheap first pass that sizes
// scanFrames' record slice.
func countFrames(data []byte) int {
	n := 0
	for off := 0; len(data)-off >= frameHeaderLen; n++ {
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length > maxPayloadBytes || length > len(data)-off-frameHeaderLen {
			break
		}
		off += frameHeaderLen + length
	}
	return n
}
