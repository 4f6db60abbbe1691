// Snapshot demo: the persistence lifecycle end to end.
//
// First run (the store directory is empty): build a two-machine cluster
// with a durable store attached, delegate a secure buffer from alice to
// bob, checkpoint after each step (base checkpoint, then a delta), and
// write the snapshot manifest (schema mmt-manifest/v1 — validate and
// render it with `mmt-stat`).
//
// Second run (the store holds a committed snapshot): reopen the cluster
// from disk with mmt.Open, verify bob still holds the delegated secret,
// and hand the buffer back to alice — proof that links, keys and tree
// state all survive a process restart.
//
//	go run ./examples/snapshot -store .bench/snapstore -manifest manifest.json
//	go run ./examples/snapshot -store .bench/snapstore -manifest manifest.json  # again: resumes
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"mmt"
)

const secret = "checkpointed secret: survives restarts"

func main() {
	storeDir := flag.String("store", ".bench/snapstore", "directory for the crash-consistent snapshot store")
	manifestPath := flag.String("manifest", "", "write the snapshot manifest JSON here")
	flag.Parse()

	cluster, err := mmt.Open(*storeDir)
	switch {
	case err == nil:
		resume(cluster)
	case errors.Is(err, mmt.ErrNoSnapshot):
		fresh(*storeDir)
	default:
		log.Fatal(err)
	}

	if *manifestPath != "" {
		writeManifest(*storeDir, *manifestPath)
	}
}

// fresh runs the paper's delegation scenario with a store attached,
// checkpointing after every durable step.
func fresh(storeDir string) {
	fmt.Println("no committed snapshot — running the scenario from scratch")
	cluster, err := mmt.New(mmt.WithStore(storeDir))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	alice, err := cluster.AddMachine("alice")
	if err != nil {
		log.Fatal(err)
	}
	bob, err := cluster.AddMachine("bob")
	if err != nil {
		log.Fatal(err)
	}
	producer := alice.Spawn("producer", []byte("producer-code-v1"))
	consumer := bob.Spawn("consumer", []byte("consumer-code-v1"))
	link, err := cluster.Connect(producer, consumer)
	if err != nil {
		log.Fatal(err)
	}
	buf, err := link.NewBuffer(producer)
	if err != nil {
		log.Fatal(err)
	}
	if err := buf.Write(0, []byte(secret)); err != nil {
		log.Fatal(err)
	}
	if err := cluster.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint 1: base snapshot committed (buffer lives on alice)")

	if err := link.Delegate(buf, mmt.OwnershipTransfer); err != nil {
		log.Fatal(err)
	}
	got, err := link.Receive(consumer)
	if err != nil {
		log.Fatal(err)
	}
	data, err := got.Read(0, len(secret))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob received: %q\n", data)
	if err := cluster.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint 2: delegation committed — run this demo again to resume from disk")
}

// resume reopens the persisted cluster and hands the buffer back.
func resume(cluster *mmt.Cluster) {
	defer cluster.Close()
	fmt.Println("committed snapshot found — resuming from the store")

	buf, err := liveBuffer(cluster, "bob")
	if err != nil {
		log.Fatal(err)
	}
	data, err := buf.Read(0, len(secret))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob still holds: %q\n", data)

	// Hand it back: the restored link still carries the session keys.
	links := cluster.Links()
	if len(links) != 1 {
		log.Fatalf("want 1 restored link, got %d", len(links))
	}
	link := links[0]
	if err := link.Delegate(buf, mmt.OwnershipTransfer); err != nil {
		log.Fatal(err)
	}
	dst := link.Sender()
	if dst.Machine().Name() == "bob" {
		dst = link.Receiver()
	}
	back, err := link.Receive(dst)
	if err != nil {
		log.Fatal(err)
	}
	data, err = back.Read(0, len(secret))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice took it back: %q\n", data)
	if err := cluster.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint 3: the return trip is durable too")
}

// liveBuffer finds the machine's buffer that holds data (Connect also
// arms a receive-buffer capability, which stays in the armed state).
func liveBuffer(c *mmt.Cluster, machine string) (*mmt.Buffer, error) {
	m, ok := c.Machine(machine)
	if !ok {
		return nil, fmt.Errorf("no machine %q in the restored cluster", machine)
	}
	for _, e := range m.Enclaves() {
		for _, cap := range e.Buffers() {
			buf, err := e.Buffer(cap)
			if err != nil {
				return nil, err
			}
			st, err := buf.Stats()
			if err != nil {
				return nil, err
			}
			if st.State == "valid" {
				return buf, nil
			}
		}
	}
	return nil, fmt.Errorf("machine %q holds no live buffer", machine)
}

// writeManifest reopens the store and exports the manifest of its
// committed snapshot.
func writeManifest(storeDir, path string) {
	cluster, err := mmt.Open(storeDir)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	m, err := cluster.Manifest()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s — snapshot manifest (epoch %d, root %s…), validate with `mmt-stat`\n",
		path, m.Epoch, m.RootHash[:12])
}
