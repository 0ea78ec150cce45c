package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/ledger/diskstore"
	"algorand/internal/params"
	"algorand/internal/sim"
	"algorand/internal/sortition"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
	"algorand/internal/wire"
)

// probeRow is one probe's outcome: the metric's value in its declared
// unit, and the raw per-operation costs behind it.
type probeRow struct {
	Value       float64 `json:"value"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Ops         int     `json:"ops"`
}

// probeBudget is how long one probe's timed loop runs.
var probeBudget = 60 * time.Millisecond

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// timeOps runs op in batches for about probeBudget and reports the
// median batch's time per operation plus allocations per operation.
// prep, when non-nil, runs untimed before every operation, which is
// then timed on its own. An op reports an error when the layer refused
// its input: a probe that timed the rejection path would book a no-op
// as the layer's baseline, so the first refusal ends the probe.
func timeOps(prep func(), op func() error) (probeRow, error) {
	start := time.Now()
	if prep != nil {
		prep()
	}
	if err := op(); err != nil {
		return probeRow{}, err
	}
	first := time.Since(start)
	if first <= 0 {
		first = time.Nanosecond
	}
	// Up to eight batches share the budget; an operation too slow for that
	// still runs three times.
	batches, perBatch := 8, int(probeBudget/8/first)
	if perBatch < 1 {
		perBatch = 1
		if batches = int(probeBudget / first); batches < 3 {
			batches = 3
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var perOp []float64
	var failed error
	for b := 0; b < batches && failed == nil; b++ {
		var took time.Duration
		if prep == nil {
			// One clock reading per batch: some operations take tens of ns.
			t := time.Now()
			for i := 0; i < perBatch && failed == nil; i++ {
				failed = op()
			}
			took = time.Since(t)
		} else {
			for i := 0; i < perBatch && failed == nil; i++ {
				prep()
				t := time.Now()
				failed = op()
				took += time.Since(t)
			}
		}
		perOp = append(perOp, float64(took)/float64(perBatch))
	}
	if failed != nil {
		return probeRow{}, failed
	}
	runtime.ReadMemStats(&ms1)
	ops := batches * perBatch
	return probeRow{
		NsPerOp:     median(perOp),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops),
		Ops:         ops,
	}, nil
}

// errRefused is what a probe operation reports when the layer turned
// its input down without saying why (a false or a zero).
var errRefused = errors.New("the layer refused the probe's input")

// accepted turns a layer's yes/no answer into a probe operation's error.
func accepted(ok bool) error {
	if !ok {
		return errRefused
	}
	return nil
}

// runProbes times every layer's public functions on inputs generated
// from the seed and shaped like the workloads: a τ_step = 200 vote, a
// τ_final = 400 certificate, a 1 MB block of ~6 700 payments. Crypto,
// sortition, agreement, blockprop and the certificate check run under
// the Real provider, because signatures and VRFs are their cost; wire,
// ledger, txflow, diskstore and gateway run under Fast, so that what is
// timed is the layer itself. Every timed call is checked: a probe whose
// input the layer refuses fails the run instead of reporting a number.
func runProbes(seed int64, toy bool, dir string, spans *spanLog) (map[string]probeRow, error) {
	if toy {
		defer func(d time.Duration) { probeBudget = d }(probeBudget)
		probeBudget = 2 * time.Millisecond
	}
	root := spans.begin(0, "probes", ref("probes", 0, 0))
	defer spans.end(root)
	rows := make(map[string]probeRow)
	var failed error
	// record stores a probe under its metric name, scaled from ns to the
	// metric's unit (perOps > 1 when one timed operation covers several).
	// After the first failure the remaining probes are skipped.
	record := func(name string, unitNs, perOps float64, prep func(), op func() error) {
		if failed != nil {
			return
		}
		sp := spans.begin(root, name, ref("probes", 0, 0))
		row, err := timeOps(prep, op)
		spans.end(sp)
		if err != nil {
			failed = fmt.Errorf("probe %s: %w", name, err)
			return
		}
		row.NsPerOp /= perOps
		row.AllocsPerOp /= perOps
		row.BytesPerOp /= perOps
		row.Value = row.NsPerOp / unitNs
		rows[name] = row
	}
	const ns, us, ms = 1.0, 1e3, 1e6

	prm := params.Default()
	prm.TauProposer, prm.TauStep, prm.TauFinal = 8, 200, 400
	lcfg := ledger.Config{SeedRefreshInterval: 10, MaxTimestampSkew: time.Hour}
	seed0 := crypto.HashUint64("bench.probe.genesis", uint64(seed))

	// --- Real provider: crypto, sortition, agreement, blockprop, certificate.
	real := crypto.NewReal()
	const realUsers = 24
	var rids []crypto.Identity
	rgen := make(map[crypto.PublicKey]uint64)
	for i := 0; i < realUsers; i++ {
		id := real.NewIdentity(crypto.SeedFromUint64(uint64(seed)<<32 | uint64(i)))
		rids = append(rids, id)
		rgen[id.PublicKey()] = 1 << 20
	}
	rl := ledger.New(real, lcfg, rgen, seed0)
	ctx := agreement.NewContext(rl)
	msg := make([]byte, 200)
	sig := rids[0].Sign(msg)
	pk0 := rids[0].PublicKey()
	record("crypto.sign_us", us, 1, nil, func() error { sink = rids[0].Sign(msg); return nil })
	record("crypto.verify_sig_us", us, 1, nil, func() error { return accepted(real.VerifySig(pk0, msg, sig)) })
	_, proof := rids[0].VRFProve(msg)
	record("crypto.vrf_prove_us", us, 1, nil, func() error { sink, _ = rids[0].VRFProve(msg); return nil })
	record("crypto.vrf_verify_us", us, 1, nil, func() error {
		_, ok := real.VRFVerify(pk0, msg, proof)
		return accepted(ok)
	})
	fast := crypto.DefaultFastCosts()
	rows["crypto.fast_cost_drift_verify_sig"] = probeRow{Value: ratio(float64(fast.VerifySig), rows["crypto.verify_sig_us"].NsPerOp)}
	rows["crypto.fast_cost_drift_vrf_verify"] = probeRow{Value: ratio(float64(fast.VRFVerify), rows["crypto.vrf_verify_us"].NsPerOp)}

	// Stakes are equal, so one weight serves every identity.
	w, total := ctx.Weights[pk0], ctx.TotalWeight
	// voteOf is id's signed vote at step and whether sortition selected it.
	value := crypto.HashBytes("bench.probe.value")
	voteOf := func(id crypto.Identity, step, tau uint64) (ledger.Vote, bool) {
		r := sortition.Execute(id, ctx.Seed[:], sortition.Role{Kind: sortition.RoleCommittee, Round: ctx.Round, Step: step}, tau, w, total)
		v := ledger.Vote{Sender: id.PublicKey(), Round: ctx.Round, Step: step, SortHash: r.Output,
			SortProof: r.Proof, PrevHash: ctx.LastBlockHash, Value: value}
		v.Sign(id)
		return v, r.Selected()
	}
	// The step-1 probes use the first identity the step's committee
	// holds: a verifier stops early on a voter that was not selected.
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: ctx.Round, Step: agreement.StepReduction1}
	var voter crypto.Identity
	var vote ledger.Vote
	for _, id := range rids {
		v, ok := voteOf(id, agreement.StepReduction1, prm.TauStep)
		if ok {
			voter, vote = id, v
			break
		}
	}
	if voter == nil {
		return nil, fmt.Errorf("no probe identity sits on the step-1 committee")
	}
	vpk := voter.PublicKey()
	record("sortition.execute_us", us, 1, nil, func() error {
		return accepted(sortition.Execute(voter, ctx.Seed[:], role, prm.TauStep, w, total).Selected())
	})
	record("sortition.verify_us", us, 1, nil, func() error {
		_, j := sortition.Verify(real, vpk, vote.SortProof, ctx.Seed[:], role, prm.TauStep, w, total)
		return accepted(j > 0)
	})
	record("agreement.process_vote_us", us, 1, nil, func() error {
		return accepted(agreement.ProcessVote(real, prm, ctx, &vote) > 0)
	})
	voteBytes := wire.Encode(&vote)
	record("wire.vote_encode_ns", ns, 1, nil, func() error { sink = wire.Encode(&vote); return nil })
	record("wire.vote_decode_ns", ns, 1, nil, func() error {
		var v ledger.Vote
		return wire.Decode(voteBytes, &v)
	})
	cert := &ledger.Certificate{Round: ctx.Round, Step: agreement.StepFinal, Value: value, Final: true}
	for _, id := range rids {
		if v, ok := voteOf(id, agreement.StepFinal, prm.TauFinal); ok {
			cert.Votes = append(cert.Votes, v)
		}
	}
	record("ledger.cert_verify_ms", ms, 1, nil, func() error {
		return cert.Verify(real, ctx.Seed, ctx.Weights, ctx.TotalWeight, prm.TauFinal, prm.FinalThreshold(), ctx.LastBlockHash)
	})

	// --- Fast provider: a 1 MB block of payments between 50 accounts.
	fp := crypto.NewFast()
	const fastUsers = 50
	blockSize := 1 << 20
	if toy {
		blockSize = 64 << 10
	}
	var fids []crypto.Identity
	fgen := make(map[crypto.PublicKey]uint64)
	for i := 0; i < fastUsers; i++ {
		id := fp.NewIdentity(crypto.SeedFromUint64(uint64(seed)<<32 | uint64(1000+i)))
		fids = append(fids, id)
		fgen[id.PublicKey()] = 1 << 20
	}
	// fl stays at genesis: the probes below apply, validate and assemble
	// payments numbered from nonce 0, which only the genesis state takes.
	fl := ledger.New(fp, lcfg, fgen, seed0)
	// payments returns perSender signed payments from every account, in
	// nonce order per sender.
	payments := func(perSender int) []ledger.Transaction {
		var txs []ledger.Transaction
		for n := 0; n < perSender; n++ {
			for i, id := range fids {
				tx := ledger.Transaction{From: id.PublicKey(), To: fids[(i+1)%fastUsers].PublicKey(), Amount: 1, Nonce: uint64(n)}
				tx.Sign(id)
				txs = append(txs, tx)
			}
		}
		return txs
	}
	// stateRoot applies txs to a copy of l's head state and returns the
	// resulting account-tree root.
	stateRoot := func(l *ledger.Ledger, txs []ledger.Transaction) (crypto.Digest, error) {
		post := l.Balances().Clone()
		for i := range txs {
			if err := post.ApplyTx(&txs[i]); err != nil {
				return crypto.Digest{}, fmt.Errorf("payment %d does not apply: %w", i, err)
			}
		}
		return post.Root(), nil
	}
	fullBlock := func(l *ledger.Ledger, id crypto.Identity, txs []ledger.Transaction, size int) (*ledger.Block, error) {
		root, err := stateRoot(l, txs)
		if err != nil {
			return nil, err
		}
		out, seedProof := id.VRFProve(ledger.SeedAlpha(l.PrevSeed(), l.NextRound()))
		b := &ledger.Block{Round: l.NextRound(), PrevHash: l.HeadHash(), Timestamp: time.Second, StateRoot: root,
			Seed: ledger.SeedFromVRF(out), SeedProof: seedProof, Proposer: id.PublicKey(), Txns: txs}
		if pad := size - b.WireSize(); pad > 0 {
			b.PayloadPadding = pad
		}
		return b, nil
	}
	txsPerBlock := blockSize / ledger.TxWireSize
	txs := payments(txsPerBlock / fastUsers)
	block, err := fullBlock(fl, fids[0], txs, blockSize)
	if err != nil {
		return nil, err
	}
	record("ledger.validate_block_us", us, 1, nil, func() error { return fl.ValidateBlock(block, time.Second) })
	// Every commit lands on a ledger of its own at genesis, so each one
	// clones the state, applies the block's payments, checks the root and
	// links the entry, and none meets a block it already has.
	var cl *ledger.Ledger
	record("ledger.commit_us", us, 1, func() { cl = ledger.New(fp, lcfg, fgen, seed0) }, func() error {
		if err := cl.Commit(block, nil); err != nil {
			return err
		}
		return accepted(cl.HeadHash() == block.Hash())
	})
	// The account tree is maintained as payments apply, so the cost of a
	// block's state root is applying its payments to a copy of the state.
	record("ledger.state_root_us", us, 1, nil, func() error {
		root, err := stateRoot(fl, txs)
		if err != nil {
			return err
		}
		return accepted(root == block.StateRoot)
	})
	blockBytes := wire.Encode(block)
	record("wire.block_encode_us", us, 1, nil, func() error { sink = wire.Encode(block); return nil })
	record("wire.block_decode_us", us, 1, nil, func() error {
		var b ledger.Block
		return wire.Decode(blockBytes, &b)
	})

	// blockprop under Real: proposing and checking that 1 MB block.
	rblock, err := fullBlock(rl, rids[0], nil, blockSize)
	if err != nil {
		return nil, err
	}
	var prop *blockprop.Proposal
	var proposer crypto.Identity
	for _, id := range rids {
		if prop = blockprop.Propose(id, sortition.RoleProposer, ctx.Seed, ctx.Round, realUsers, w, total, rblock); prop != nil {
			proposer = id
			break
		}
	}
	if prop == nil {
		return nil, fmt.Errorf("no probe identity was selected as proposer")
	}
	record("blockprop.propose_us", us, 1, nil, func() error {
		return accepted(blockprop.Propose(proposer, sortition.RoleProposer, ctx.Seed, ctx.Round, realUsers, w, total, rblock) != nil)
	})
	record("blockprop.verify_blockmsg_us", us, 1, nil, func() error {
		return accepted(blockprop.VerifyBlockMsg(real, &prop.Block, sortition.RoleProposer, ctx.Seed, realUsers, w, total))
	})

	// txflow: admission of signed payments, and assembling 1 MB out of
	// 10 000 pending.
	pending := payments(200)
	if toy {
		pending = pending[:1000]
	}
	var flow *txflow.Flow
	const submitBatch = 1000
	record("txflow.submit_us", us, submitBatch, func() { flow = txflow.New(fp, txflow.Config{}) }, func() error {
		for i := 0; i < submitBatch; i++ {
			if err := flow.Submit(&pending[i]); err != nil {
				return fmt.Errorf("payment %d: %w", i, err)
			}
		}
		return nil
	})
	flow = txflow.New(fp, txflow.Config{})
	for i := range pending {
		if err := flow.Submit(&pending[i]); err != nil {
			return nil, fmt.Errorf("filling the pool for txflow.assemble_us: payment %d: %w", i, err)
		}
	}
	// The Fast provider's signatures are shorter than Ed25519's, so a full
	// block holds more of its payments than ledger.TxWireSize suggests.
	fits := blockSize / pending[0].WireSize()
	record("txflow.assemble_us", us, 1, nil, func() error {
		if got := len(flow.Assemble(fl.Balances(), blockSize)); got != fits {
			return fmt.Errorf("assembled %d payments, a full block holds %d", got, fits)
		}
		return nil
	})

	// diskstore: fsync'd appends of that block, then a cold re-open.
	archiveRounds := 64
	if toy {
		archiveRounds = 4
	}
	if failed != nil {
		return nil, failed
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening the probe archive: %w", err)
	}
	var appends []float64
	sp := spans.begin(root, "diskstore.Append", ref("probes", 0, 0))
	for rd := 1; rd <= archiveRounds && err == nil; rd++ {
		b := *block
		b.Round = uint64(rd)
		c := &ledger.Certificate{Round: b.Round, Step: agreement.StepFinal, Value: b.Hash(), Final: true, Votes: cert.Votes}
		start := time.Now()
		err = ds.Append(&b, c)
		appends = append(appends, float64(time.Since(start))/us)
	}
	spans.end(sp)
	if cerr := ds.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("filling the probe archive: %w", err)
	}
	rows["diskstore.append_p50_us"] = probeRow{Value: quantile(appends, 0.5), NsPerOp: quantile(appends, 0.5) * us, Ops: len(appends)}
	rows["diskstore.append_p90_us"] = probeRow{Value: quantile(appends, 0.9), NsPerOp: quantile(appends, 0.9) * us, Ops: len(appends)}
	record("diskstore.open_recover_ms", ms, 1, nil, func() error {
		re, err := diskstore.Open(dir, diskstore.Options{})
		if err != nil {
			return err
		}
		defer re.Close()
		if re.Rounds() != archiveRounds {
			return fmt.Errorf("recovered %d of %d rounds", re.Rounds(), archiveRounds)
		}
		return nil
	})

	// gateway: edge admission and a read-only client session. No workload
	// routes through the gateway; these two guard against gross regressions.
	gcfg := sim.DefaultConfig(10, 1)
	gcfg.Seed, gcfg.WeightEach, gcfg.Gateways = seed, 1<<20, 1
	gc := sim.NewCluster(gcfg)
	var gtxs []*ledger.Transaction
	for n := 0; n < submitBatch/gcfg.N; n++ {
		for i := 0; i < gcfg.N; i++ {
			tx := &ledger.Transaction{From: gc.Identity(i).PublicKey(), To: gc.Identity((i + 1) % gcfg.N).PublicKey(), Amount: 1, Nonce: uint64(n)}
			tx.Sign(gc.Identity(i))
			gtxs = append(gtxs, tx)
		}
	}
	record("gateway.submit_us", us, submitBatch, func() { gc = sim.NewCluster(gcfg) }, func() error {
		gw := gc.Gateway(0)
		for i, tx := range gtxs {
			if err := gw.Submit(tx); err != nil {
				return fmt.Errorf("payment %d: %w", i, err)
			}
		}
		return nil
	})
	gw := gc.Gateway(0)
	gpk := gc.Identity(0).PublicKey()
	record("gateway.query_session_ns", ns, 1, nil, func() error {
		money, _, _ := gw.QuerySession(gpk)
		return accepted(money > 0)
	})

	// vtime: the scheduler's cost per timed wake-up and per mailbox
	// hand-off between two processes.
	const events = 2000
	record("vtime.sleep_event_ns", ns, events, nil, func() error {
		s := vtime.New()
		s.Spawn("sleeper", func(p *vtime.Proc) {
			for i := 0; i < events; i++ {
				p.Sleep(time.Millisecond)
			}
		})
		return accepted(s.Run(0) == events*time.Millisecond)
	})
	record("vtime.mailbox_pingpong_ns", ns, events, nil, func() error {
		s := vtime.New()
		ping, pong := s.NewMailbox(), s.NewMailbox()
		echoed := 0
		s.Spawn("ping", func(p *vtime.Proc) {
			for i := 0; i < events/2; i++ {
				ping.Send(i)
				if p.Recv(pong) == i {
					echoed++
				}
			}
		})
		s.Spawn("pong", func(p *vtime.Proc) {
			for i := 0; i < events/2; i++ {
				pong.Send(p.Recv(ping))
			}
		})
		s.Run(0)
		return accepted(echoed == events/2)
	})
	return rows, failed
}
