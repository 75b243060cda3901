package persist

import (
	"encoding/binary"
	"io"
	"sort"

	"flexmeasures/internal/shard"
)

// oracleEncodeSnapshot is the snapshot writer encodeSnapshot replaced:
// it collects every entry into one unsized list, sorts it by Seq and
// writes the header and then each record with its own Write. The
// buffered, shard-merging writer must produce its exact bytes.
func oracleEncodeSnapshot(f io.Writer, parts [][]shard.Entry, seq uint64) error {
	hdr := append([]byte(walMagic), kindSnapshot)
	hdr = binary.AppendUvarint(hdr, seq)
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	muts := make([]shard.Mutation, 0)
	for shardIndex, entries := range parts {
		for _, e := range entries {
			muts = append(muts, shard.Mutation{Op: shard.OpAdd, Shard: shardIndex, Seq: e.Seq, Offer: e.Offer})
		}
	}
	sort.Slice(muts, func(i, j int) bool { return muts[i].Seq < muts[j].Seq })
	var buf []byte
	var err error
	for _, m := range muts {
		buf, err = appendRecord(buf[:0], m)
		if err != nil {
			return err
		}
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
