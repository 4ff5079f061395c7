// Package relational implements the in-memory relational database substrate
// that Nebula runs against. The paper's prototype is built on top of a
// conventional RDBMS; this package supplies the pieces the annotation
// pipeline actually depends on: typed schemas with primary and foreign keys,
// tuple storage with stable tuple identities, hash and inverted-text
// indexes, predicate scans, and FK–PK join traversal.
//
// The engine is deliberately not a SQL parser: queries are built
// programmatically (see Query and Predicate), which is how the keyword
// search layer (internal/keyword) consumes it — it generates structured
// queries directly, the way Bergamaschi et al.'s configurations map to SQL.
package relational

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nebula/internal/textutil"
)

// Type enumerates the column types supported by the engine.
type Type int

const (
	// TypeString holds free text or identifiers.
	TypeString Type = iota
	// TypeInt holds 64-bit signed integers.
	TypeInt
	// TypeFloat holds 64-bit floats.
	TypeFloat
)

func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a typed cell value. The zero Value is the empty string.
type Value struct {
	kind Type
	i    int64
	f    float64
	s    string
}

// String constructs a string Value.
func String(s string) Value { return Value{kind: TypeString, s: s} }

// Int constructs an int Value.
func Int(i int64) Value { return Value{kind: TypeInt, i: i} }

// Float constructs a float Value.
func Float(f float64) Value { return Value{kind: TypeFloat, f: f} }

// Kind returns the value's type.
func (v Value) Kind() Type { return v.kind }

// Str returns the string payload; for non-string values it returns the
// canonical textual rendering.
func (v Value) Str() string {
	switch v.kind {
	case TypeString:
		return v.s
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return ""
	}
}

// AsInt returns the integer payload (0 for other kinds).
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float payload, converting ints.
func (v Value) AsFloat() float64 {
	if v.kind == TypeInt {
		return float64(v.i)
	}
	return v.f
}

// Equal reports exact equality of kind and payload.
func (v Value) Equal(o Value) bool { return v == o }

// EqualFold reports equality ignoring string case.
func (v Value) EqualFold(o Value) bool {
	if v.kind == TypeString && o.kind == TypeString {
		return strings.EqualFold(v.s, o.s)
	}
	return v == o
}

// stringKeyPrefix starts the Key() of every string value.
const stringKeyPrefix = "s:"

// Key returns a canonical string form usable as a map key; distinct values
// of different kinds never collide.
func (v Value) Key() string {
	switch v.kind {
	case TypeString:
		return stringKeyPrefix + strings.ToLower(v.s)
	case TypeInt:
		return "i:" + strconv.FormatInt(v.i, 10)
	default:
		return "f:" + strconv.FormatFloat(v.f, 'g', -1, 64)
	}
}

// SameKey reports v.Key() == o.Key() without building either key: the same
// kind, and then fold-equal strings, equal ints, or floats with the same
// shortest rendering, which is one float64 value (every NaN renders alike,
// and -0 apart from 0).
func (v Value) SameKey(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case TypeString:
		return textutil.LowerEqual(v.s, o.s)
	case TypeInt:
		return v.i == o.i
	default:
		return math.Float64bits(v.f) == math.Float64bits(o.f) || math.IsNaN(v.f) && math.IsNaN(o.f)
	}
}

// keyHash is a hash of Key() that SameKey values share.
func (v Value) keyHash() uint64 {
	switch v.kind {
	case TypeString:
		return foldHash(v.s)
	case TypeInt:
		return mix64(uint64(v.i) ^ 0x1)
	default:
		if math.IsNaN(v.f) {
			return mix64(0x7ff8000000000001)
		}
		return mix64(math.Float64bits(v.f) ^ 0x2)
	}
}

// appendKey appends Key() to dst without building the string: the loader's
// form of the same rule. Pure-ASCII text folds byte by byte (see fold.go);
// anything else goes through strings.ToLower, as in Key.
func (v Value) appendKey(dst []byte) []byte {
	switch v.kind {
	case TypeString:
		return textutil.AppendLower(append(dst, stringKeyPrefix...), v.s, isASCII(v.s))
	case TypeInt:
		return strconv.AppendInt(append(dst, "i:"...), v.i, 10)
	default:
		return strconv.AppendFloat(append(dst, "f:"...), v.f, 'g', -1, 64)
	}
}

func (v Value) String() string { return v.Str() }

// ParseValue converts raw text into a Value of the requested type.
func ParseValue(t Type, raw string) (Value, error) {
	switch t {
	case TypeString:
		return String(raw), nil
	case TypeInt:
		i, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int %q: %w", raw, err)
		}
		return Int(i), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float %q: %w", raw, err)
		}
		return Float(f), nil
	default:
		return Value{}, fmt.Errorf("unknown type %v", t)
	}
}

// CoercibleTo reports whether raw text could be parsed as type t. The
// Value-Map generator uses this for its data-type compatibility check
// (factor 1 of d(w,c) in §5.2.1).
func CoercibleTo(t Type, raw string) bool {
	_, err := ParseValue(t, raw)
	return err == nil
}
