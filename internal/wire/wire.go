// Package wire implements the primitive binary encodings used by the SSH-2
// protocol family (RFC 4251 §5): byte, boolean, uint32, uint64, string,
// mpint, and name-list. Both the honeypot's SSH server and the simulated
// attackers' SSH client marshal their messages through this package.
//
// All readers operate on a *Reader which tracks a position into a single
// buffer; all writers append to a *Builder. Neither allocates per field
// beyond what the caller's data requires.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
)

// Errors returned by Reader methods.
var (
	// ErrShortBuffer indicates a field extends beyond the end of the buffer.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrStringTooLong indicates a declared string length exceeds the sanity cap.
	ErrStringTooLong = errors.New("wire: string length exceeds limit")
)

// MaxStringLen is the default cap on individual string fields. SSH
// packets are bounded at 35000 bytes by RFC 4253 §6.1, so no legitimate
// SSH field can exceed this. The cap is per-Reader (SetMaxStringLen):
// the WAL's binary batch codec reuses this package for payloads that
// legitimately run far past the SSH bound.
const MaxStringLen = 1 << 20

// Builder accumulates an SSH wire-format message. The zero value is ready
// to use.
type Builder struct {
	buf []byte
}

// NewBuilder returns a Builder with capacity preallocated for n bytes.
func NewBuilder(n int) *Builder {
	return &Builder{buf: make([]byte, 0, n)}
}

// NewBuilderFrom returns a Builder that appends to buf, reusing its
// capacity (pass buf[:0] to overwrite). The buffer is surrendered to
// the Builder until retrieved with Bytes.
func NewBuilderFrom(buf []byte) *Builder {
	return &Builder{buf: buf}
}

// Bytes returns the accumulated message. The returned slice aliases the
// builder's internal buffer.
func (b *Builder) Bytes() []byte { return b.buf }

// Len returns the number of bytes accumulated so far.
func (b *Builder) Len() int { return len(b.buf) }

// Reset truncates the builder to empty, retaining capacity.
func (b *Builder) Reset() { b.buf = b.buf[:0] }

// Grow makes room for n more bytes, so that appending them does not
// reallocate.
func (b *Builder) Grow(n int) { b.buf = slices.Grow(b.buf, n) }

// Byte appends a single byte.
func (b *Builder) Byte(v byte) *Builder {
	b.buf = append(b.buf, v)
	return b
}

// Bool appends a boolean encoded as 0 or 1.
func (b *Builder) Bool(v bool) *Builder {
	if v {
		return b.Byte(1)
	}
	return b.Byte(0)
}

// Uint32 appends a big-endian uint32.
func (b *Builder) Uint32(v uint32) *Builder {
	b.buf = binary.BigEndian.AppendUint32(b.buf, v)
	return b
}

// Uint64 appends a big-endian uint64.
func (b *Builder) Uint64(v uint64) *Builder {
	b.buf = binary.BigEndian.AppendUint64(b.buf, v)
	return b
}

// String appends a length-prefixed byte string.
func (b *Builder) String(v []byte) *Builder {
	b.Uint32(uint32(len(v)))
	b.buf = append(b.buf, v...)
	return b
}

// Text appends a length-prefixed UTF-8 string.
func (b *Builder) Text(v string) *Builder {
	b.Uint32(uint32(len(v)))
	b.buf = append(b.buf, v...)
	return b
}

// Raw appends bytes verbatim with no length prefix.
func (b *Builder) Raw(v []byte) *Builder {
	b.buf = append(b.buf, v...)
	return b
}

// NameList appends a comma-separated name-list (RFC 4251 §5).
func (b *Builder) NameList(names []string) *Builder {
	return b.Text(strings.Join(names, ","))
}

// MPInt appends a multiple-precision integer in SSH mpint format:
// two's complement, big-endian, minimal length, with a leading zero byte
// added when the high bit of the first byte is set.
func (b *Builder) MPInt(v *big.Int) *Builder {
	if v.Sign() == 0 {
		return b.Uint32(0)
	}
	if v.Sign() < 0 {
		// Negative mpints never occur in the subset of SSH we implement;
		// encode magnitude defensively rather than panic.
		v = new(big.Int).Abs(v)
	}
	bytes := v.Bytes()
	if bytes[0]&0x80 != 0 {
		b.Uint32(uint32(len(bytes) + 1))
		b.Byte(0)
		b.buf = append(b.buf, bytes...)
		return b
	}
	b.Uint32(uint32(len(bytes)))
	b.buf = append(b.buf, bytes...)
	return b
}

// MPIntBytes appends a byte slice as an mpint, used for fixed-width values
// such as curve25519 shared secrets (RFC 8731 §3: encoded as mpint after
// stripping leading zeros).
func (b *Builder) MPIntBytes(v []byte) *Builder {
	i := 0
	for i < len(v) && v[i] == 0 {
		i++
	}
	return b.MPInt(new(big.Int).SetBytes(v[i:]))
}

// Reader decodes SSH wire-format fields from a buffer.
type Reader struct {
	buf    []byte
	pos    int
	err    error
	maxStr uint32
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
// String fields are capped at MaxStringLen; callers decoding formats
// with a different bound adjust it with SetMaxStringLen.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf, maxStr: MaxStringLen} }

// SetMaxStringLen replaces this Reader's string-length sanity cap. The
// cap only rejects declared lengths (the buffer bound is always
// enforced separately), so raising it never admits reads past the
// buffer; n <= 0 leaves only the buffer bound.
func (r *Reader) SetMaxStringLen(n int) {
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	r.maxStr = uint32(n)
}

// Err returns the first decoding error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// SetErrf records a decoding error, unless one is already recorded
// (the first error is sticky, exactly as for field reads). Composite
// decoders use it to fail the whole read when a structurally valid
// field carries an invalid value — a bad version byte, an implausible
// count — so their callers keep the single Err() check.
func (r *Reader) SetErrf(format string, args ...any) {
	r.fail(fmt.Errorf(format, args...))
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Rest returns the unread bytes without consuming them. The returned
// slice aliases the reader's buffer.
func (r *Reader) Rest() []byte { return r.buf[r.pos:] }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Byte reads one byte. On underflow it records ErrShortBuffer and returns 0.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// Bool reads a boolean (any nonzero byte is true).
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.buf) {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// String reads a length-prefixed byte string. The returned slice aliases
// the reader's buffer.
func (r *Reader) String() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if n > r.maxStr {
		r.fail(fmt.Errorf("%w: %d", ErrStringTooLong, n))
		return nil
	}
	if r.pos+int(n) > len(r.buf) {
		r.fail(ErrShortBuffer)
		return nil
	}
	v := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return v
}

// Text reads a length-prefixed string as a Go string (copies).
func (r *Reader) Text() string { return string(r.String()) }

// NameList reads a name-list into its component names. An empty list
// yields a nil slice.
func (r *Reader) NameList() []string {
	s := r.Text()
	if r.err != nil || s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// MPInt reads a multiple-precision integer.
func (r *Reader) MPInt() *big.Int {
	v := r.String()
	if r.err != nil {
		return new(big.Int)
	}
	return new(big.Int).SetBytes(v)
}

// Bytes reads exactly n raw bytes. The returned slice aliases the buffer.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail(ErrShortBuffer)
		return nil
	}
	v := r.buf[r.pos : r.pos+n]
	r.pos += n
	return v
}
