// Package helper gives the callee fixture a package-qualified target.
package helper

func Help() {}
