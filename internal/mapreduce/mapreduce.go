// Package mapreduce is the in-memory MapReduce framework of §VI-C1: a
// coordinator, mappers and reducers on separate simulated machines that
// shuffle intermediate key-value results through one of the three transfer
// channels (non-secure baseline, software secure channel, MMT closure
// delegation).
//
// The framework follows the RDMA-based in-memory designs the paper cites:
// intermediate results live in memory, each mapper holds a connection
// (QP-like) to every reducer, and the shuffle is the only cross-machine
// traffic. End-to-end time is the makespan over all simulated node clocks.
package mapreduce

import (
	"errors"
	"hash/fnv"
	"strings"

	"mmt/internal/cursor"
)

// KV is one intermediate or final key-value pair.
type KV struct {
	Key   string
	Value int64
}

// Mapper turns an input chunk into intermediate pairs via emit.
type Mapper func(chunk []byte, emit func(key string, value int64))

// Reducer folds all values of one key into a final value.
type Reducer func(key string, values []int64) int64

// WordCountMapper emits (word, 1) per whitespace-separated token.
func WordCountMapper(chunk []byte, emit func(string, int64)) {
	for _, w := range strings.Fields(string(chunk)) {
		emit(w, 1)
	}
}

// WordCountReducer sums the counts.
func WordCountReducer(_ string, values []int64) int64 {
	var sum int64
	for _, v := range values {
		sum += v
	}
	return sum
}

// combine pre-reduces a partition locally, preserving first-seen key
// order for determinism.
func combine(kvs []KV, combiner Reducer) []KV {
	byKey := make(map[string][]int64, len(kvs))
	var order []string
	for _, kv := range kvs {
		if _, seen := byKey[kv.Key]; !seen {
			order = append(order, kv.Key)
		}
		byKey[kv.Key] = append(byKey[kv.Key], kv.Value)
	}
	out := make([]KV, 0, len(order))
	for _, k := range order {
		out = append(out, KV{Key: k, Value: combiner(k, byKey[k])})
	}
	return out
}

// partitionOf assigns a key to a reducer.
func partitionOf(key string, reducers int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % reducers
}

var errBadPartition = errors.New("mapreduce: malformed partition")

// kvLayout is a shuffle partition in both directions: a pair count, then
// per pair a length-prefixed key and a 64-bit value. A count the payload
// cannot hold (12 bytes a pair at least) is rejected before it sizes
// anything.
func kvLayout(c *cursor.Codec, kvs *[]KV) {
	cursor.List(c, kvs, 12, func(kv *KV) {
		c.String(&kv.Key)
		cursor.U64(c, &kv.Value)
	})
}

// encodeKVs serializes a partition for the shuffle.
func encodeKVs(kvs []KV) []byte {
	size := 4
	for _, kv := range kvs {
		size += 4 + len(kv.Key) + 8
	}
	c := cursor.Encoder(size)
	kvLayout(c, &kvs)
	return c.W.Buf
}

// decodeKVs reverses encodeKVs.
func decodeKVs(b []byte) ([]KV, error) {
	c := cursor.Decoder(b, errBadPartition)
	var kvs []KV
	kvLayout(c, &kvs)
	if err := c.R.Done(); err != nil {
		return nil, err
	}
	return kvs, nil
}

// splitInput cuts input into m chunks on whitespace boundaries.
func splitInput(input []byte, m int) [][]byte {
	chunks := make([][]byte, 0, m)
	approx := len(input) / m
	start := 0
	for i := 0; i < m; i++ {
		if i == m-1 {
			chunks = append(chunks, input[start:])
			break
		}
		end := start + approx
		if end >= len(input) {
			chunks = append(chunks, input[start:])
			for len(chunks) < m {
				chunks = append(chunks, nil)
			}
			break
		}
		for end < len(input) && input[end] != ' ' && input[end] != '\n' {
			end++
		}
		chunks = append(chunks, input[start:end])
		start = end
	}
	return chunks
}
