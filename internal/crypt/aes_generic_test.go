//go:build !amd64 || purego

package crypt

import "testing"

// eachAESLoop runs f once: the portable build has one encryptBlocks loop.
func eachAESLoop(_ testing.TB, f func(loop string)) { f("cipher.Block") }
