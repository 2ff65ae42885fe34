// Package testfiles is documented; only its test file is not.
package testfiles
