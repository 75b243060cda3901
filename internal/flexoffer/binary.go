package flexoffer

import (
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
//
// The codec works on byte slices: one append-style encoder (appendOffer)
// behind EncodeBinary, MarshalBinary and AppendBinary, and one slice
// decoder (decodeOffer) behind DecodeBinary and UnmarshalBinary. A
// decoded offer owns exactly its ID and zone strings and one
// exact-length Slices array — WAL replay runs this once per record.

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

const (
	// minOfferBytes is the smallest encoding of a valid offer (one-byte
	// idLen, tes, tls−tes, numSlices, one two-byte slice, two one-byte
	// total deltas). Capacity allocated up front from an untrusted
	// offer count is capped at the remaining bytes over this, and a
	// slice count is rejected when the remaining bytes cannot hold two
	// bytes per slice — so a short hostile input never allocates far
	// more than itself.
	minOfferBytes = 8
	// encodeChunk is how much EncodeBinary buffers between writes.
	encodeChunk = 32 << 10
)

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
	buf := appendHeader(nil, zoned, len(offers))
	for _, f := range offers {
		buf = appendOffer(buf, f, zoned)
		if len(buf) >= encodeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// DecodeBinary reads a binary flex-offer stream and validates every
// offer. Bytes after the last counted offer are ignored.
func DecodeBinary(r io.Reader) ([]*FlexOffer, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("flexoffer: reading binary stream: %w", err)
	}
	zoned, rest, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	count, rest, err := uvarint(rest)
	if err != nil {
		return nil, err
	}
	if count > uint64(maxBinOffers) {
		return nil, fmt.Errorf("%w: %d offers", ErrTooLarge, count)
	}
	offers := make([]*FlexOffer, 0, min(count, uint64(len(rest)/minOfferBytes)))
	for i := uint64(0); i < count; i++ {
		f := new(FlexOffer)
		if rest, err = decodeOffer(rest, zoned, f); err != nil {
			return nil, fmt.Errorf("flexoffer: offer %d: %w", i, err)
		}
		offers = append(offers, f)
	}
	return offers, nil
}

// AppendBinary appends the offer as a one-offer binary stream to b —
// exactly the bytes EncodeBinary produces for a single-element slice,
// FXO1/FXO2 selection included — and returns the extended slice. It
// implements encoding.BinaryAppender: the WAL in internal/persist
// encodes each record's offer in place inside its frame buffer.
func (f *FlexOffer) AppendBinary(b []byte) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return b, fmt.Errorf("flexoffer: encoding offer 0: %w", err)
	}
	zoned := f.Zone != ""
	return appendOffer(appendHeader(b, zoned, 1), f, zoned), nil
}

// MarshalBinary encodes the offer as a one-offer binary stream (see
// AppendBinary). It implements encoding.BinaryMarshaler; the WAL stores
// offers record by record in this form, so log payloads stay readable
// by any FXO decoder.
func (f *FlexOffer) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(nil)
}

// UnmarshalBinary decodes a one-offer binary stream into f (the inverse
// of MarshalBinary). It implements encoding.BinaryUnmarshaler. Trailing
// bytes after the offer are an error: a WAL record frames exactly one
// offer, so extra data means the frame is corrupt. On error f is left
// unchanged.
func (f *FlexOffer) UnmarshalBinary(data []byte) error {
	zoned, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}
	count, rest, err := uvarint(rest)
	if err != nil {
		return err
	}
	if count != 1 {
		return fmt.Errorf("%w: %d offers in a one-offer stream", ErrCorrupt, count)
	}
	var out FlexOffer
	if rest, err = decodeOffer(rest, zoned, &out); err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: trailing bytes after offer", ErrCorrupt)
	}
	*f = out
	return nil
}

// appendHeader appends the stream magic and offer count.
func appendHeader(b []byte, zoned bool, count int) []byte {
	magic := binaryMagic
	if zoned {
		magic = binaryMagicV2
	}
	b = append(b, magic[:]...)
	return binary.AppendUvarint(b, uint64(count))
}

// appendOffer appends one validated offer's fields.
func appendOffer(b []byte, f *FlexOffer, zoned bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(f.ID)))
	b = append(b, f.ID...)
	if zoned {
		b = binary.AppendUvarint(b, uint64(len(f.Zone)))
		b = append(b, f.Zone...)
	}
	b = binary.AppendUvarint(b, uint64(f.EarliestStart))
	b = binary.AppendUvarint(b, uint64(f.LatestStart-f.EarliestStart))
	b = binary.AppendUvarint(b, uint64(len(f.Slices)))
	for _, s := range f.Slices {
		b = binary.AppendVarint(b, s.Min)
		b = binary.AppendUvarint(b, uint64(s.Max-s.Min))
	}
	b = binary.AppendUvarint(b, uint64(f.TotalMin-f.SumMin()))
	return binary.AppendUvarint(b, uint64(f.TotalMax-f.TotalMin))
}

// decodeHeader checks the magic, reporting whether the stream is FXO2.
func decodeHeader(data []byte) (zoned bool, rest []byte, err error) {
	if len(data) < len(binaryMagic) {
		return false, nil, fmt.Errorf("%w: %d-byte input", ErrBadMagic, len(data))
	}
	switch [4]byte(data) {
	case binaryMagic:
		return false, data[4:], nil
	case binaryMagicV2:
		return true, data[4:], nil
	}
	return false, nil, ErrBadMagic
}

// decodeOffer decodes one offer from the front of data into f and
// returns the bytes after it. Every length is checked against the bytes
// that remain before anything is allocated for it. f is overwritten
// once every field has decoded and then validated, so on a validation
// error it holds the invalid offer: pass a fresh or scratch offer.
func decodeOffer(data []byte, zoned bool, f *FlexOffer) ([]byte, error) {
	id, data, err := lengthPrefixed(data, "id")
	if err != nil {
		return nil, err
	}
	var zone string
	if zoned {
		if zone, data, err = lengthPrefixed(data, "zone"); err != nil {
			return nil, err
		}
	}
	tes, data, err := uvarint(data)
	if err != nil {
		return nil, err
	}
	tfDelta, data, err := uvarint(data)
	if err != nil {
		return nil, err
	}
	nSlices, data, err := uvarint(data)
	if err != nil {
		return nil, err
	}
	if nSlices > uint64(maxBinLen) {
		return nil, fmt.Errorf("%w: %d slices", ErrTooLarge, nSlices)
	}
	if nSlices > uint64(len(data)/2) {
		return nil, fmt.Errorf("%w: %d slices in %d bytes", ErrCorrupt, nSlices, len(data))
	}
	slices := make([]Slice, nSlices)
	for j := range slices {
		lo, n := binary.Varint(data)
		if n <= 0 {
			return nil, varintErr(n)
		}
		data = data[n:]
		span, rest, err := uvarint(data)
		if err != nil {
			return nil, err
		}
		data = rest
		slices[j] = Slice{Min: lo, Max: lo + int64(span)}
	}
	cminDelta, data, err := uvarint(data)
	if err != nil {
		return nil, err
	}
	cmaxDelta, data, err := uvarint(data)
	if err != nil {
		return nil, err
	}
	*f = FlexOffer{
		ID:            id,
		Zone:          zone,
		EarliestStart: int(tes),
		LatestStart:   int(tes + tfDelta),
		Slices:        slices,
	}
	f.TotalMin = f.SumMin() + int64(cminDelta)
	f.TotalMax = f.TotalMin + int64(cmaxDelta)
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return data, nil
}

// lengthPrefixed decodes a uvarint length and that many bytes as a
// string, refusing a length beyond the sanity cap or the input.
func lengthPrefixed(data []byte, field string) (string, []byte, error) {
	n, data, err := uvarint(data)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(maxBinLen) {
		return "", nil, fmt.Errorf("%w: %s length %d", ErrTooLarge, field, n)
	}
	if n > uint64(len(data)) {
		return "", nil, fmt.Errorf("%w: %s length %d with %d bytes left", ErrCorrupt, field, n, len(data))
	}
	return string(data[:n]), data[n:], nil
}

func uvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, varintErr(n)
	}
	return v, data[n:], nil
}

// varintErr reports a failed binary.Uvarint/Varint read by its n.
func varintErr(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	return fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
}
