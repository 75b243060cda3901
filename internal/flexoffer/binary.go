package flexoffer

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Compact binary codec for flex-offer streams. Where the JSON document
// format (codec.go) is for interchange and inspection, the binary format
// is for bulk storage and transmission of large populations — an
// aggregator shipping a district's offers to a BRP moves orders of
// magnitude less data this way.
//
// Format (all integers varint-encoded, little-endian magic):
//
//	magic "FXO1" | count | offers…
//	offer: idLen | id bytes | tes | tls−tes | numSlices |
//	       (min, max−min) per slice | cmin−Σmin | cmax−cmin
//
// Deltas keep the varints short: tls ≥ tes, max ≥ min, cmin ≥ Σmin and
// cmax ≥ cmin always hold for valid offers, so the deltas are
// non-negative.
//
// Version 2 ("FXO2") inserts `zoneLen | zone bytes` between the id and
// tes, carrying the grid-zone routing key. The encoder emits FXO2 only
// when at least one offer has a zone — a zone-less population encodes
// to the exact FXO1 bytes it always did — and the decoder accepts both
// versions.

// Binary codec errors.
var (
	ErrBadMagic   = errors.New("flexoffer: not a binary flex-offer stream")
	ErrCorrupt    = errors.New("flexoffer: corrupt binary stream")
	ErrTooLarge   = errors.New("flexoffer: binary field exceeds sanity limit")
	binaryMagic   = [4]byte{'F', 'X', 'O', '1'}
	binaryMagicV2 = [4]byte{'F', 'X', 'O', '2'}
	maxBinLen     = 1 << 20 // per-field sanity cap: 1M slices / 1MB IDs
	maxBinOffers  = 1 << 26
)

// maxBinPrealloc caps the capacity allocated up front from an untrusted
// count header (offers per stream, slices per offer). Past it, slices
// grow with append as elements actually decode, so a short hostile
// input cannot force an allocation far larger than itself, while
// realistic offers still get one exact allocation.
const maxBinPrealloc = 1024

// EncodeBinary writes the offers in the compact binary format. Every
// offer is validated first.
func EncodeBinary(w io.Writer, offers []*FlexOffer) error {
	for i, f := range offers {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("flexoffer: encoding offer %d: %w", i, err)
		}
	}
	// FXO2 only when a zone is actually present: zone-less streams keep
	// their historical FXO1 bytes.
	zoned := false
	for _, f := range offers {
		if f.Zone != "" {
			zoned = true
			break
		}
	}
	bw := bufio.NewWriter(w)
	magic := binaryMagic
	if zoned {
		magic = binaryMagicV2
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	putUvarint(bw, uint64(len(offers)))
	for _, f := range offers {
		putUvarint(bw, uint64(len(f.ID)))
		if _, err := bw.WriteString(f.ID); err != nil {
			return err
		}
		if zoned {
			putUvarint(bw, uint64(len(f.Zone)))
			if _, err := bw.WriteString(f.Zone); err != nil {
				return err
			}
		}
		putUvarint(bw, uint64(f.EarliestStart))
		putUvarint(bw, uint64(f.LatestStart-f.EarliestStart))
		putUvarint(bw, uint64(len(f.Slices)))
		for _, s := range f.Slices {
			putVarint(bw, s.Min)
			putUvarint(bw, uint64(s.Max-s.Min))
		}
		putUvarint(bw, uint64(f.TotalMin-f.SumMin()))
		putUvarint(bw, uint64(f.TotalMax-f.TotalMin))
	}
	return bw.Flush()
}

// DecodeBinary reads a binary flex-offer stream and validates every
// offer.
func DecodeBinary(r io.Reader) ([]*FlexOffer, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	zoned := magic == binaryMagicV2
	if magic != binaryMagic && !zoned {
		return nil, ErrBadMagic
	}
	count, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if count > uint64(maxBinOffers) {
		return nil, fmt.Errorf("%w: %d offers", ErrTooLarge, count)
	}
	offers := make([]*FlexOffer, 0, min(count, maxBinPrealloc))
	for i := uint64(0); i < count; i++ {
		f, err := decodeOneBinary(br, zoned)
		if err != nil {
			return nil, fmt.Errorf("flexoffer: offer %d: %w", i, err)
		}
		offers = append(offers, f)
	}
	return offers, nil
}

func decodeOneBinary(br *bufio.Reader, zoned bool) (*FlexOffer, error) {
	idLen, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if idLen > uint64(maxBinLen) {
		return nil, fmt.Errorf("%w: id length %d", ErrTooLarge, idLen)
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(br, id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var zone []byte
	if zoned {
		zoneLen, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if zoneLen > uint64(maxBinLen) {
			return nil, fmt.Errorf("%w: zone length %d", ErrTooLarge, zoneLen)
		}
		zone = make([]byte, zoneLen)
		if _, err := io.ReadFull(br, zone); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	tes, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	tfDelta, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	nSlices, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if nSlices > uint64(maxBinLen) {
		return nil, fmt.Errorf("%w: %d slices", ErrTooLarge, nSlices)
	}
	f := &FlexOffer{
		ID:            string(id),
		Zone:          string(zone),
		EarliestStart: int(tes),
		LatestStart:   int(tes + tfDelta),
		Slices:        make([]Slice, 0, min(nSlices, maxBinPrealloc)),
	}
	for j := uint64(0); j < nSlices; j++ {
		min, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		span, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		f.Slices = append(f.Slices, Slice{Min: min, Max: min + int64(span)})
	}
	cminDelta, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	cmaxDelta, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	f.TotalMin = f.SumMin() + int64(cminDelta)
	f.TotalMax = f.TotalMin + int64(cmaxDelta)
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return f, nil
}

// MarshalBinary encodes the offer as a one-offer binary stream —
// exactly the bytes EncodeBinary produces for a single-element slice,
// FXO1/FXO2 selection included. It implements encoding.BinaryMarshaler;
// the WAL in internal/persist stores offers record by record through
// this pair, so log payloads stay readable by any FXO decoder.
func (f *FlexOffer) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, []*FlexOffer{f}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a one-offer binary stream into f (the inverse
// of MarshalBinary). It implements encoding.BinaryUnmarshaler. Trailing
// bytes after the offer are an error: a WAL record frames exactly one
// offer, so extra data means the frame is corrupt.
func (f *FlexOffer) UnmarshalBinary(data []byte) error {
	br := bufio.NewReader(bytes.NewReader(data))
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	zoned := magic == binaryMagicV2
	if magic != binaryMagic && !zoned {
		return ErrBadMagic
	}
	count, err := readUvarint(br)
	if err != nil {
		return err
	}
	if count != 1 {
		return fmt.Errorf("%w: %d offers in a one-offer stream", ErrCorrupt, count)
	}
	out, err := decodeOneBinary(br, zoned)
	if err != nil {
		return err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: trailing bytes after offer", ErrCorrupt)
	}
	*f = *out
	return nil
}

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) // bufio.Writer errors surface at Flush
}

func putVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func readUvarint(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

func readVarint(br *bufio.Reader) (int64, error) {
	v, err := binary.ReadVarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}
