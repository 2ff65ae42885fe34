package nopkgdoc

// F is documented, but the package is not.
func F() {}
