// Package calls holds one call per shape the callee resolver
// distinguishes: each exported function below makes exactly one call,
// named after the function in the resolver table test.
package calls

import "fixture/internal/helper"

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

type bumper interface{ bump() }

type holder struct{ fn func() }

func plain() {}

func generic[T any](x T) T { return x }

func Plain() { plain() }

func Qualified() { helper.Help() }

func Generic() { generic[int](1) }

func Method(c *counter) { c.bump() }

func Interface(b bumper) { b.bump() }

func Param(f func()) { f() }

func Field(h holder) { h.fn() }

func Literal() { func() {}() }

func Bound(c *counter) {
	f := c.bump
	f()
}
