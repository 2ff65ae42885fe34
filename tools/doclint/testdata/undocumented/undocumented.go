// Package undocumented exports one undocumented identifier of each kind.
package undocumented

const (
	A = 1
	B = 2
)

type T struct{}

func (T) M() {}

func F() {}

// G is documented.
func G() {}
