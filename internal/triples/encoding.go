package triples

import (
	"encoding/binary"
	"fmt"
	"math"
)

// IndexKind identifies which index family a posting belongs to. Peers store
// postings from all families in one ordered B-tree; the key namespace keeps
// the families apart, and the kind lets operators interpret what they read.
type IndexKind uint8

const (
	// IndexOID postings implement object lookups (hash on oid).
	IndexOID IndexKind = iota
	// IndexAttrValue postings implement selections (hash on attr#value).
	IndexAttrValue
	// IndexValue postings implement keyword queries (hash on value).
	IndexValue
	// IndexGram postings implement instance-level similarity: one posting
	// per positional q-gram of the value, keyed by attr#gram.
	IndexGram
	// IndexSchemaGram postings implement schema-level similarity: one
	// posting per positional q-gram of the attribute name, keyed by gram.
	IndexSchemaGram
	// IndexShort postings duplicate values shorter than the short-string
	// limit, closing the q-gram guarantee gap (reproduction extension).
	IndexShort
	// IndexCatalog postings list each distinct attribute name once.
	IndexCatalog
	// IndexBucket postings implement instance-level similarity under the
	// LSH key scheme: one posting per MinHash band, keyed by
	// attr#band#bucket (see internal/keyscheme).
	IndexBucket
	// IndexSchemaBucket postings are the schema-level LSH counterpart,
	// keyed by band#bucket of the attribute name.
	IndexSchemaBucket
)

// String names the index kind for metrics and debugging.
func (k IndexKind) String() string {
	switch k {
	case IndexOID:
		return "oid"
	case IndexAttrValue:
		return "attrvalue"
	case IndexValue:
		return "value"
	case IndexGram:
		return "gram"
	case IndexSchemaGram:
		return "schemagram"
	case IndexShort:
		return "short"
	case IndexCatalog:
		return "catalog"
	case IndexBucket:
		return "bucket"
	case IndexSchemaBucket:
		return "schemabucket"
	default:
		return fmt.Sprintf("indexkind(%d)", uint8(k))
	}
}

// Posting is the unit of storage at a peer and of result transfer on the
// wire. For gram postings, GramText/GramPos carry the positional q-gram and
// SrcLen the length of the string the gram was extracted from (value for
// IndexGram, attribute name for IndexSchemaGram); Algorithm 2's position and
// length filters (line 8) read them.
type Posting struct {
	Index    IndexKind
	Triple   Triple
	GramText string
	GramPos  int
	SrcLen   int
}

// appendUvarint appends x as an unsigned varint.
func appendUvarint(b []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(b, tmp[:n]...)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ReadString decodes a length-prefixed string, returning it and the number of
// bytes consumed.
func ReadString(b []byte) (string, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return "", 0, fmt.Errorf("triples: bad string length varint")
	}
	if uint64(len(b)-n) < l {
		return "", 0, fmt.Errorf("triples: string truncated: need %d bytes, have %d", l, len(b)-n)
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}

// AppendValue appends a typed value: one kind byte, then either a
// length-prefixed string or 8 bytes of float64.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	if v.Kind == KindNumber {
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v.Num))
		return append(b, tmp[:]...)
	}
	return AppendString(b, v.Str)
}

// ReadValue decodes a typed value.
func ReadValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("triples: empty value encoding")
	}
	kind := ValueKind(b[0])
	switch kind {
	case KindNumber:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("triples: number value truncated")
		}
		return Number(math.Float64frombits(binary.BigEndian.Uint64(b[1:9]))), 9, nil
	case KindString:
		s, n, err := ReadString(b[1:])
		if err != nil {
			return Value{}, 0, err
		}
		return String(s), 1 + n, nil
	default:
		return Value{}, 0, fmt.Errorf("triples: unknown value kind %d", kind)
	}
}

// AppendTriple appends a triple.
func AppendTriple(b []byte, t Triple) []byte {
	b = AppendString(b, t.OID)
	b = AppendString(b, t.Attr)
	return AppendValue(b, t.Val)
}

// ReadTriple decodes a triple.
func ReadTriple(b []byte) (Triple, int, error) {
	var t Triple
	oid, n1, err := ReadString(b)
	if err != nil {
		return t, 0, err
	}
	attr, n2, err := ReadString(b[n1:])
	if err != nil {
		return t, 0, err
	}
	val, n3, err := ReadValue(b[n1+n2:])
	if err != nil {
		return t, 0, err
	}
	return Triple{OID: oid, Attr: attr, Val: val}, n1 + n2 + n3, nil
}

// uvarintLen is the encoded length of x as an unsigned varint.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// stringSize is the encoded length of a length-prefixed string.
func stringSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// EncodedTripleSize reports the wire size of a triple without materializing
// the encoding.
func EncodedTripleSize(t Triple) int {
	n := stringSize(t.OID) + stringSize(t.Attr) + 1
	if t.Val.Kind == KindNumber {
		return n + 8
	}
	return n + stringSize(t.Val.Str)
}

// AppendPosting appends a posting.
func AppendPosting(b []byte, p Posting) []byte {
	b = append(b, byte(p.Index))
	b = AppendTriple(b, p.Triple)
	b = AppendString(b, p.GramText)
	b = appendUvarint(b, uint64(p.GramPos))
	b = appendUvarint(b, uint64(p.SrcLen))
	return b
}

// ReadPosting decodes a posting.
func ReadPosting(b []byte) (Posting, int, error) {
	var p Posting
	if len(b) == 0 {
		return p, 0, fmt.Errorf("triples: empty posting encoding")
	}
	p.Index = IndexKind(b[0])
	off := 1
	t, n, err := ReadTriple(b[off:])
	if err != nil {
		return p, 0, err
	}
	p.Triple = t
	off += n
	g, n, err := ReadString(b[off:])
	if err != nil {
		return p, 0, err
	}
	p.GramText = g
	off += n
	pos, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return p, 0, fmt.Errorf("triples: bad gram position varint")
	}
	p.GramPos = int(pos)
	off += n
	srcLen, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return p, 0, fmt.Errorf("triples: bad source length varint")
	}
	p.SrcLen = int(srcLen)
	off += n
	return p, off, nil
}

// EncodedSize reports the wire size of the posting without materializing
// the encoding.
func (p Posting) EncodedSize() int {
	return 1 + EncodedTripleSize(p.Triple) + stringSize(p.GramText) +
		uvarintLen(uint64(p.GramPos)) + uvarintLen(uint64(p.SrcLen))
}
