package flexoffer

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// The reader-based FXO codec the slice codec in binary.go replaced. It
// is kept here as the oracle the differential tests and
// FuzzUnmarshalBinary compare against: the slice codec must accept the
// same inputs, fail with the same error class, decode the same offers
// and encode the same bytes.

// OracleEncodeBinary exposes the oracle encoder to the external test
// package, whose workload fleets this package cannot import.
var OracleEncodeBinary = oracleEncodeBinary

// oracleMaxBinPrealloc is the fixed cap the oracle put on capacity
// allocated from an untrusted count header.
const oracleMaxBinPrealloc = 1024

func oracleEncodeBinary(w io.Writer, offers []*FlexOffer) error {
	for i, f := range offers {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("flexoffer: encoding offer %d: %w", i, err)
		}
	}
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
	oraclePutUvarint(bw, uint64(len(offers)))
	for _, f := range offers {
		oraclePutUvarint(bw, uint64(len(f.ID)))
		if _, err := bw.WriteString(f.ID); err != nil {
			return err
		}
		if zoned {
			oraclePutUvarint(bw, uint64(len(f.Zone)))
			if _, err := bw.WriteString(f.Zone); err != nil {
				return err
			}
		}
		oraclePutUvarint(bw, uint64(f.EarliestStart))
		oraclePutUvarint(bw, uint64(f.LatestStart-f.EarliestStart))
		oraclePutUvarint(bw, uint64(len(f.Slices)))
		for _, s := range f.Slices {
			oraclePutVarint(bw, s.Min)
			oraclePutUvarint(bw, uint64(s.Max-s.Min))
		}
		oraclePutUvarint(bw, uint64(f.TotalMin-f.SumMin()))
		oraclePutUvarint(bw, uint64(f.TotalMax-f.TotalMin))
	}
	return bw.Flush()
}

func oracleDecodeBinary(r io.Reader) ([]*FlexOffer, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	zoned := magic == binaryMagicV2
	if magic != binaryMagic && !zoned {
		return nil, ErrBadMagic
	}
	count, err := oracleReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if count > uint64(maxBinOffers) {
		return nil, fmt.Errorf("%w: %d offers", ErrTooLarge, count)
	}
	offers := make([]*FlexOffer, 0, min(count, oracleMaxBinPrealloc))
	for i := uint64(0); i < count; i++ {
		f, err := oracleDecodeOne(br, zoned)
		if err != nil {
			return nil, fmt.Errorf("flexoffer: offer %d: %w", i, err)
		}
		offers = append(offers, f)
	}
	return offers, nil
}

func oracleDecodeOne(br *bufio.Reader, zoned bool) (*FlexOffer, error) {
	idLen, err := oracleReadUvarint(br)
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
		zoneLen, err := oracleReadUvarint(br)
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
	tes, err := oracleReadUvarint(br)
	if err != nil {
		return nil, err
	}
	tfDelta, err := oracleReadUvarint(br)
	if err != nil {
		return nil, err
	}
	nSlices, err := oracleReadUvarint(br)
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
		Slices:        make([]Slice, 0, min(nSlices, oracleMaxBinPrealloc)),
	}
	for j := uint64(0); j < nSlices; j++ {
		min, err := oracleReadVarint(br)
		if err != nil {
			return nil, err
		}
		span, err := oracleReadUvarint(br)
		if err != nil {
			return nil, err
		}
		f.Slices = append(f.Slices, Slice{Min: min, Max: min + int64(span)})
	}
	cminDelta, err := oracleReadUvarint(br)
	if err != nil {
		return nil, err
	}
	cmaxDelta, err := oracleReadUvarint(br)
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

// oracleUnmarshalBinary is the oracle's (*FlexOffer).UnmarshalBinary,
// returning the decoded offer instead of filling a receiver.
func oracleUnmarshalBinary(data []byte) (*FlexOffer, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	zoned := magic == binaryMagicV2
	if magic != binaryMagic && !zoned {
		return nil, ErrBadMagic
	}
	count, err := oracleReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if count != 1 {
		return nil, fmt.Errorf("%w: %d offers in a one-offer stream", ErrCorrupt, count)
	}
	out, err := oracleDecodeOne(br, zoned)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after offer", ErrCorrupt)
	}
	return out, nil
}

func oraclePutUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func oraclePutVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func oracleReadUvarint(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

func oracleReadVarint(br *bufio.Reader) (int64, error) {
	v, err := binary.ReadVarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}
