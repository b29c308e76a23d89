package u128

import (
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// String renders x in decimal.
func (x U128) String() string {
	if x.IsZero() {
		return "0"
	}
	var digits []byte
	for !x.IsZero() {
		var r uint64
		x, r = x.DivMod64(10)
		digits = append(digits, byte('0'+r))
	}
	for i, j := 0, len(digits)-1; i < j; i, j = i+1, j-1 {
		digits[i], digits[j] = digits[j], digits[i]
	}
	return string(digits)
}

// Hex renders x as 0x-prefixed lowercase hexadecimal without leading zeros.
func (x U128) Hex() string {
	if x.Hi == 0 {
		return fmt.Sprintf("0x%x", x.Lo)
	}
	return fmt.Sprintf("0x%x%016x", x.Hi, x.Lo)
}

// Parse parses a decimal or 0x-prefixed hexadecimal string into a U128.
func Parse(s string) (U128, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Zero, fmt.Errorf("u128: empty string")
	}
	base := uint64(10)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		base = 16
		s = s[2:]
		if s == "" {
			return Zero, fmt.Errorf("u128: empty hex literal")
		}
	}
	var x U128
	for _, c := range s {
		if c == '_' {
			continue
		}
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return Zero, fmt.Errorf("u128: invalid digit %q", c)
		}
		if d >= base {
			return Zero, fmt.Errorf("u128: digit %q out of range for base %d", c, base)
		}
		// x = x*base + d, with overflow detection.
		hiProd := Mul64(x.Hi, base)
		if hiProd.Hi != 0 {
			return Zero, fmt.Errorf("u128: value overflows 128 bits")
		}
		loProd := Mul64(x.Lo, base)
		hi, carry := bits.Add64(loProd.Hi, hiProd.Lo, 0)
		if carry != 0 {
			return Zero, fmt.Errorf("u128: value overflows 128 bits")
		}
		x = U128{Hi: hi, Lo: loProd.Lo}
		y := x.Add64(d)
		if y.Less(x) {
			return Zero, fmt.Errorf("u128: value overflows 128 bits")
		}
		x = y
	}
	return x, nil
}

// MustParse is Parse but panics on error; intended for constants.
func MustParse(s string) U128 {
	x, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return x
}

// ToBig converts x to a math/big integer. It is used by tests and by the
// arbitrary-precision baseline, never by optimized kernels.
func (x U128) ToBig() *big.Int {
	b := new(big.Int).SetUint64(x.Hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(x.Lo))
}

// FromBig converts a math/big integer to a U128. It reports ok=false when b
// is negative or does not fit in 128 bits.
func FromBig(b *big.Int) (x U128, ok bool) {
	if b.Sign() < 0 || b.BitLen() > 128 {
		return Zero, false
	}
	// Word i sits at bit i*bits.UintSize: one word per half on 64-bit
	// platforms, two on 32-bit ones.
	for i, w := range b.Bits() {
		if sh := uint(i * bits.UintSize); sh < 64 {
			x.Lo |= uint64(w) << sh
		} else {
			x.Hi |= uint64(w) << (sh - 64)
		}
	}
	return x, true
}
