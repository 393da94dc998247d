//! The bit-parallel levelized simulation engine.
//!
//! Two passes over a topologically levelized netlist replace the
//! event-driven simulator's priority queue (see DESIGN.md §15):
//!
//! 1. **Value propagation, 64 cycles at a time.** Each net holds one `u64`
//!    word whose bit `j` is the net's settled value after input vector `j`
//!    of the current block. One pass in topological order evaluates every
//!    gate with plain word-wide bitwise ops, so one sweep computes the
//!    functional result of 64 cycles. Shifting a word left by one and
//!    carrying in the previous block's settled bit yields each cycle's
//!    *start* value — the state the circuit held at the clock edge.
//! 2. **Arrival-time recovery, gate-major over the sensitized cone.**
//!    Cells are scanned in level-consistent topological order (the builder
//!    guarantees every fan-in has a lower net index, which `new` checks
//!    against [`Netlist::levelize`](tevot_netlist::Netlist::levelize)), so
//!    every fan-in's toggle lists are final before a gate is replayed.
//!    Each gate is visited **once per block**: a per-net activity word
//!    (bit `j` = "toggles in cycle `j`") makes the whole-block skip one
//!    OR over the fan-ins, the fan-in start/activity words are hoisted
//!    into registers, and the gate then replays just its active cycles —
//!    independent work the CPU can overlap. A precomputed subcube-
//!    constancy table additionally skips *non-sensitized* cycles (the
//!    truth table cannot leave its start value while only the active
//!    fan-ins toggle — an AND holding a quiet 0, a mux selecting the
//!    quiet leg), which is where most of a deep circuit's activity dies.
//!    Each remaining replay merges the input
//!    toggle lists in time order and re-derives the gate's own toggles
//!    under the same inertial-delay rules the event-driven engine applies
//!    — which is what makes the two engines **bit-identical** per
//!    [`CycleResult`] (delays, toggle lists, error classes), not merely
//!    statistically close. The event engine stays on as the differential
//!    oracle (`tests/levelized_oracle.rs`).
//!
//! Events are keyed `(time, wave)`: the wave index replicates the event
//! engine's same-timestep commit epochs so that zero-delay cells — which
//! can legitimately toggle a net twice at one instant — replay exactly.
//! Both components pack into one `u64` (`time << 20 | wave`) so the replay
//! loop's merge, supersede, and maturity checks are single integer
//! comparisons; the constructor asserts the netlist and annotation fit the
//! packing (under ~1M nets, total delay mass under 2^43 ps).

use tevot_netlist::{GateKind, Netlist};
use tevot_timing::DelayAnnotation;

use crate::cycle::CycleResult;

/// Selects the simulation engine behind a characterization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The event-driven [`TimingSimulator`](crate::TimingSimulator): the
    /// reference semantics and the differential oracle.
    Event,
    /// The bit-parallel levelized engine — bit-identical results at a
    /// fraction of the cost; the default for sweeps.
    #[default]
    Levelized,
}

impl Engine {
    /// Every engine, in declaration order.
    pub const ALL: [Engine; 2] = [Engine::Event, Engine::Levelized];

    /// The flag spelling (`event` / `levelized`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Event => "event",
            Engine::Levelized => "levelized",
        }
    }

    /// Parses a `--engine` flag value.
    pub fn from_name(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == name)
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Low bits of a packed event key hold the same-timestep commit wave; the
/// high 44 hold the picosecond timestamp, so `u64` order is (time, wave)
/// order and `key + 1` is "same instant, next wave".
const WAVE_BITS: u32 = 20;
/// Exhausted-lane marker in the replay merge; unreachable as a real key
/// because the constructor bounds total delay mass below `2^43` ps.
const SENTINEL: u64 = u64::MAX;

/// Flat per-net cell record: input net indices, truth-table word, and
/// propagation delay (pre-shifted into packed-key time position), laid out
/// for the replay loop's access pattern.
#[derive(Debug, Clone, Copy)]
struct PackedCell {
    ins: [u32; GateKind::MAX_ARITY],
    /// `delay_ps << WAVE_BITS`: adding it to a packed key advances the
    /// time field directly; zero means a zero-delay cell.
    delay: u64,
    tt: u16,
    /// Subcube-constancy table: bit `idx` of `con[M]` is set when the
    /// truth table is constant on the subcube through `idx` spanned by
    /// input set `M`. A cycle whose active fan-ins all lie in such an
    /// `M` is *non-sensitized* — no interleaving of its input toggles
    /// can move the output — and the replay skips it outright.
    con: [u16; 1 << GateKind::MAX_ARITY],
    arity: u8,
}

/// The bit-parallel levelized timing simulator.
///
/// Produces the same [`CycleResult`]s as
/// [`TimingSimulator`](crate::TimingSimulator) — same dynamic delays, same
/// output-toggle lists in the same order, same settled words — for the
/// same vector stream started from the same initial state.
///
/// # Examples
///
/// ```
/// use tevot_netlist::fu::FunctionalUnit;
/// use tevot_timing::{DelayModel, OperatingCondition};
/// use tevot_sim::LevelizedSimulator;
///
/// let fu = FunctionalUnit::IntAdd;
/// let nl = fu.build();
/// let ann = DelayModel::tsmc45_like().annotate(&nl, OperatingCondition::nominal());
/// let mut sim = LevelizedSimulator::new(&nl, &ann);
/// let cycles = sim.run(&[fu.encode_operands(123, 456)]);
/// assert_eq!(fu.decode_output(cycles[0].settled_outputs()), 579);
/// ```
#[derive(Debug)]
pub struct LevelizedSimulator<'a> {
    netlist: &'a Netlist,
    cells: Vec<PackedCell>,
    /// Output-net positions: `output_slot[net] == k+1` if net is output k.
    output_slot: Vec<u32>,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    /// Settled value of every net at the current block boundary.
    settled: Vec<bool>,
    /// Pass 1: per-net settled-value words for the current block (bit `j`
    /// = value after vector `j`).
    words: Vec<u64>,
    /// Per-net start-value words: `(words << 1) | previous settled bit`.
    start: Vec<u64>,
    /// Pass 2 arena: committed toggles of the current block as packed
    /// `time << WAVE_BITS | wave` keys, one contiguous slice per
    /// (net, cycle) with events, appended gate-major in topological order.
    /// The vector's length is a high-water mark of pre-sized storage;
    /// [`arena_len`](Self::arena_len) is the logical end, which lets the
    /// replay loop commit with an unconditional store plus a conditional
    /// cursor bump instead of a branchy `push`.
    arena: Vec<u64>,
    arena_len: usize,
    /// Arena slice table, indexed `net << 6 | cycle`, packing
    /// `offset << 32 | length` into one word (one load per lane in the
    /// merge); entries are only meaningful where the net's
    /// [`ev_word`](Self::ev_word) bit is set. The length excludes the
    /// [`SENTINEL`] terminator every list carries.
    ev_sl: Vec<u64>,
    /// Per-net activity mask for the current block: bit `j` is set when
    /// the net toggles at least once in cycle `j` — the whole-block skip
    /// test for a gate is one OR over its fan-ins' masks.
    ev_word: Vec<u64>,
    /// Output toggles of one cycle as `(time << WAVE_BITS | net, slot)` —
    /// the packed first element is exactly the event engine's emission
    /// order, so one stable sort on it reproduces that order.
    out_toggles: Vec<(u64, u32)>,
    replay_evals: u64,
}

impl<'a> LevelizedSimulator<'a> {
    /// Creates a simulator with all primary inputs initially zero and the
    /// circuit fully settled (same initial state as
    /// [`TimingSimulator::new`](crate::TimingSimulator::new)).
    ///
    /// # Panics
    ///
    /// Panics if the annotation was computed for a different netlist size.
    pub fn new(netlist: &'a Netlist, delays: &'a DelayAnnotation) -> Self {
        Self::with_initial_inputs(netlist, delays, &vec![false; netlist.inputs().len()])
    }

    /// Creates a simulator with the circuit settled on `inputs`.
    ///
    /// # Panics
    ///
    /// Panics on netlist/annotation mismatch or wrong input count.
    pub fn with_initial_inputs(
        netlist: &'a Netlist,
        delays: &'a DelayAnnotation,
        inputs: &[bool],
    ) -> Self {
        assert_eq!(
            delays.delays().len(),
            netlist.num_nets(),
            "delay annotation does not match netlist {}",
            netlist.name()
        );
        let settled = netlist.evaluate_nets(inputs);
        // The replay pass scans cells in net-index order and relies on the
        // builder's topological numbering; the levelization pins that the
        // flat order is level-consistent (every fan-in at a lower level or
        // a lower index within the same level's fringe).
        debug_assert!({
            let lv = netlist.levelize();
            netlist.gates().iter().enumerate().all(|(i, g)| {
                g.inputs()
                    .iter()
                    .all(|nid| nid.index() < i && lv.levels()[nid.index()] < lv.levels()[i])
            })
        });
        let n = netlist.num_nets();
        // Packed-key capacity: waves count same-instant commit epochs and
        // are bounded by the toggle count, times by the total delay mass
        // (a commit time never exceeds the sum of all cell delays).
        assert!(
            n < (1usize << WAVE_BITS),
            "netlist {} has {n} nets; the levelized engine packs event keys for < 2^{WAVE_BITS}",
            netlist.name()
        );
        let delay_mass: u64 = delays.delays().iter().map(|&d| d as u64).sum();
        assert!(
            delay_mass < (1 << (63 - WAVE_BITS)),
            "delay annotation for {} carries {delay_mass} ps total, too large for packed keys",
            netlist.name()
        );
        let mut output_slot = vec![0u32; n];
        for (k, &net) in netlist.outputs().iter().enumerate() {
            output_slot[net.index()] = k as u32 + 1;
        }
        let cells = netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut ins = [0u32; GateKind::MAX_ARITY];
                for (k, nid) in g.inputs().iter().enumerate() {
                    ins[k] = nid.index() as u32;
                }
                let tt = g.kind().truth_table();
                let arity = g.kind().arity();
                let mut con = [0u16; 1 << GateKind::MAX_ARITY];
                for (m, w) in con.iter_mut().enumerate().take(1 << arity) {
                    let m = m as u16;
                    for idx in 0..(1u16 << arity) {
                        let base = idx & !m;
                        let constant = (0..(1u16 << arity))
                            .all(|x| (tt >> (base | (x & m))) & 1 == (tt >> base) & 1);
                        *w |= (constant as u16) << idx;
                    }
                }
                PackedCell {
                    ins,
                    delay: (delays.delay_ps(i) as u64) << WAVE_BITS,
                    tt,
                    con,
                    arity: arity as u8,
                }
            })
            .collect();
        LevelizedSimulator {
            netlist,
            cells,
            output_slot,
            inputs: netlist.inputs().iter().map(|nid| nid.index() as u32).collect(),
            outputs: netlist.outputs().iter().map(|nid| nid.index() as u32).collect(),
            settled,
            words: vec![0; n],
            start: vec![0; n],
            arena: Vec::new(),
            arena_len: 0,
            ev_sl: vec![0; n << 6],
            ev_word: vec![0; n],
            out_toggles: Vec::new(),
            replay_evals: 0,
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Applies the vector stream cycle by cycle (64 cycles per bit-sliced
    /// block) and returns one [`CycleResult`] per vector, bit-identical to
    /// stepping the event-driven engine over the same stream.
    ///
    /// # Panics
    ///
    /// Panics if any vector's width differs from the number of primary
    /// inputs.
    pub fn run(&mut self, vectors: &[Vec<bool>]) -> Vec<CycleResult> {
        let mut results = Vec::with_capacity(vectors.len());
        for chunk in vectors.chunks(64) {
            self.run_block(chunk, &mut results);
        }
        results
    }

    /// Simulates one block of up to 64 vectors.
    fn run_block(&mut self, chunk: &[Vec<bool>], results: &mut Vec<CycleResult>) {
        let len = chunk.len();
        debug_assert!((1..=64).contains(&len));
        for vector in chunk {
            assert_eq!(vector.len(), self.inputs.len(), "input vector width mismatch");
        }

        // Pass 1: bit-sliced value propagation. Bit j of `words[n]` is the
        // settled value of net n after vector j.
        for (p, &net) in self.inputs.iter().enumerate() {
            let mut w = 0u64;
            for (j, vector) in chunk.iter().enumerate() {
                w |= (vector[p] as u64) << j;
            }
            self.words[net as usize] = w;
        }
        let mut word_evals = 0u64;
        for (i, gate) in self.netlist.gates().iter().enumerate() {
            use GateKind::*;
            let kind = gate.kind();
            if kind == Input {
                continue;
            }
            let mut pw = [0u64; GateKind::MAX_ARITY];
            for (k, nid) in gate.inputs().iter().enumerate() {
                pw[k] = self.words[nid.index()];
            }
            self.words[i] = match kind {
                Input => unreachable!("inputs are skipped above"),
                Const0 => 0,
                Const1 => !0,
                Buf => pw[0],
                Not => !pw[0],
                And2 => pw[0] & pw[1],
                Or2 => pw[0] | pw[1],
                Nand2 => !(pw[0] & pw[1]),
                Nor2 => !(pw[0] | pw[1]),
                Xor2 => pw[0] ^ pw[1],
                Xnor2 => !(pw[0] ^ pw[1]),
                Mux2 => (pw[2] & pw[1]) | (!pw[2] & pw[0]),
                Maj3 => (pw[0] & pw[1]) | (pw[0] & pw[2]) | (pw[1] & pw[2]),
                Xor3 => pw[0] ^ pw[1] ^ pw[2],
                And4 => pw[0] & pw[1] & pw[2] & pw[3],
                Or4 => pw[0] | pw[1] | pw[2] | pw[3],
            };
            word_evals += 1;
        }
        // Start values: each cycle begins at the previous cycle's settled
        // state; bit 0 carries the previous block's settled value in.
        for n in 0..self.words.len() {
            self.start[n] = (self.words[n] << 1) | (self.settled[n] as u64);
        }

        // Pass 2: gate-major arrival-time recovery over the active cone.
        // Seed primary inputs first: one toggle at t = 0, wave 1, in every
        // cycle whose start and settled values differ. Bits past the block
        // tail are masked off here so downstream activity masks never
        // carry phantom cycles.
        let len_mask = if len == 64 { !0u64 } else { (1u64 << len) - 1 };
        // Slot 0 permanently holds SENTINEL: quiet merge lanes park on it,
        // and every toggle list ends with its own SENTINEL terminator, so
        // lane refills in the replay are single unconditional loads.
        if self.arena.is_empty() {
            self.arena.push(SENTINEL);
        } else {
            self.arena[0] = SENTINEL;
        }
        self.arena_len = 1;
        for ii in 0..self.inputs.len() {
            let n = self.inputs[ii] as usize;
            let mut tw = (self.start[n] ^ self.words[n]) & len_mask;
            self.ev_word[n] = tw;
            while tw != 0 {
                let j = tw.trailing_zeros() as usize;
                tw &= tw - 1;
                let off = self.arena_len;
                self.ev_sl[n << 6 | j] = (off as u64) << 32 | 1;
                if self.arena.len() < off + 2 {
                    self.arena.resize(off + 2, 0);
                }
                self.arena[off] = 1; // packed (t = 0, wave = 1)
                self.arena[off + 1] = SENTINEL;
                self.arena_len = off + 2;
            }
        }

        // Topological gate-major scan, monomorphized by arity: every
        // fan-in's block of toggle lists is final (lower net index) before
        // a gate is replayed, and a gate whose fan-ins are all quiet for
        // the whole block costs one OR and one store. Arity-0 cells
        // (primary inputs, constants) are skipped outright: inputs were
        // seeded above and constants keep the all-zero mask they were
        // constructed with.
        for g in 0..self.cells.len() {
            match self.cells[g].arity {
                0 => {}
                1 => self.replay_gate_block::<1>(g),
                2 => self.replay_gate_block::<2>(g),
                3 => self.replay_gate_block::<3>(g),
                _ => self.replay_gate_block::<4>(g),
            }
        }

        // Collect per-cycle output toggles. The event engine emits toggles
        // in heap order — time, then net, then commit wave. Per-net
        // entries are appended in wave order, so a stable sort on the
        // packed (time, net) key reproduces the order exactly.
        let num_outputs = self.outputs.len();
        let mut total_toggles = 0u64;
        for j in 0..len as u32 {
            self.out_toggles.clear();
            let initial_outputs: Vec<bool> =
                self.outputs.iter().map(|&n| (self.start[n as usize] >> j) & 1 == 1).collect();
            for (k, &net) in self.outputs.iter().enumerate() {
                let n = net as usize;
                // An output net listed under several slots toggles only
                // its last slot, matching the event engine's slot map.
                if self.output_slot[n] != k as u32 + 1 {
                    continue;
                }
                if (self.ev_word[n] >> j) & 1 == 0 {
                    continue;
                }
                let sl = self.ev_sl[n << 6 | j as usize];
                let off = (sl >> 32) as usize;
                let end = off + (sl & u32::MAX as u64) as usize;
                for &key in &self.arena[off..end] {
                    self.out_toggles.push((key >> WAVE_BITS << WAVE_BITS | n as u64, k as u32));
                }
            }
            self.out_toggles.sort_by_key(|&(key, _)| key);
            let mut dynamic_delay = 0u64;
            let toggles: Vec<(u64, u32)> = self
                .out_toggles
                .iter()
                .map(|&(key, slot)| {
                    let t = key >> WAVE_BITS;
                    dynamic_delay = dynamic_delay.max(t);
                    (t, slot)
                })
                .collect();
            let cycle = CycleResult::new(initial_outputs, toggles, dynamic_delay, num_outputs);
            tevot_obs::metrics::SIM_CYCLE_DELAY_PS.record(cycle.dynamic_delay_ps());
            tevot_obs::metrics::SIM_TOGGLES_PER_CYCLE.record(cycle.toggles().len() as u64);
            total_toggles += cycle.toggles().len() as u64;
            results.push(cycle);
        }

        for n in 0..self.words.len() {
            self.settled[n] = (self.words[n] >> (len - 1)) & 1 == 1;
        }

        // One batched registry update per block (the event engine updates
        // per cycle; the levelized engine's unit of work is the block).
        tevot_obs::instant!("sim.block");
        tevot_obs::metrics::SIM_CYCLES.add(len as u64);
        tevot_obs::metrics::SIM_OUTPUT_TOGGLES.add(total_toggles);
        tevot_obs::metrics::SIM_LEV_BLOCKS.incr();
        tevot_obs::metrics::SIM_LEV_WORD_EVALS.add(word_evals);
        tevot_obs::metrics::SIM_LEV_REPLAY_EVALS.add(self.replay_evals);
        self.replay_evals = 0;
    }

    /// Replays one gate's inertial-delay response to its fan-in toggles
    /// for every active cycle of the current block, appending its own
    /// toggles to the arena.
    ///
    /// Monomorphized on the gate's arity `A` so the merge is exactly as
    /// wide as the cell: the fan-in start and activity words are hoisted
    /// into registers once per gate, the active cycles iterate as set bits
    /// of one `u64`, and each cycle's replay merges the fan-in toggle
    /// lists (each already key-sorted) through one lane per input —
    /// `keys[i]` holds lane `i`'s next packed event key (or [`SENTINEL`]
    /// when exhausted), so picking the next epoch is an `A`-wide
    /// unconditional min and membership is a plain equality per lane.
    /// Consecutive cycles are independent chains, which lets the CPU
    /// overlap their merge latencies.
    fn replay_gate_block<const A: usize>(&mut self, g: usize) {
        let cell = self.cells[g];
        let mut ew = [0u64; A];
        let mut sw = [0u64; A];
        let mut base = [0usize; A];
        let mut act = 0u64;
        for i in 0..A {
            let n = cell.ins[i] as usize;
            ew[i] = self.ev_word[n];
            sw[i] = self.start[n];
            base[i] = n << 6;
            act |= ew[i];
        }
        if act == 0 {
            self.ev_word[g] = 0;
            return;
        }
        let sg = self.start[g];
        let tt = cell.tt;
        let gbase = g << 6;
        // A zero-delay cell commits in the next same-time wave (key + 1);
        // otherwise the delay advances the time field and the wave
        // restarts at 1. Both are `(key & dmask) + dadd` with per-gate
        // constants, so the schedule needs no branch in the epoch loop.
        let dmask = if cell.delay == 0 { !0u64 } else { !((1u64 << WAVE_BITS) - 1) };
        let dadd = cell.delay + 1;

        let mut out_word = 0u64;
        let mut consumed = 0u64;
        let mut bits = act;
        while bits != 0 {
            let j = bits.trailing_zeros();
            bits &= bits - 1;

            // Lane setup reads each active lane's packed slice entry
            // anyway, so the cycle's exact arena need (one slot per
            // consumed toggle, plus trailing pending and terminator)
            // falls out for free — no separate sizing pre-pass. A quiet
            // lane's table entry is stale garbage; its cursor parks on
            // arena slot 0, the permanent SENTINEL.
            let mut off = [0usize; A];
            let mut idx = 0u32;
            let mut am = 0usize;
            let mut cap = 2usize;
            for i in 0..A {
                idx |= (((sw[i] >> j) & 1) as u32) << i;
                let sl = self.ev_sl[base[i] | j as usize];
                let active = (ew[i] >> j) & 1 == 1;
                am |= (active as usize) << i;
                off[i] = if active { (sl >> 32) as usize } else { 0 };
                cap += if active { (sl & u32::MAX as u64) as usize } else { 0 };
            }
            // Non-sensitized cycle: the truth table cannot leave its
            // start value while only these lanes toggle, whatever the
            // interleaving — no commits, no waves, nothing to replay.
            // This is where most of a deep circuit's activity dies (an
            // AND with a quiet 0 input, a mux selecting the quiet leg),
            // so the skip pays for the whole table.
            if (cell.con[am] >> idx) & 1 == 1 {
                continue;
            }
            consumed += (cap - 2) as u64;

            // The growth branch is almost never taken once the arena
            // reaches its high-water mark.
            let r = self.arena_len;
            let need = r + cap;
            if self.arena.len() < need {
                self.arena.resize(need.next_power_of_two(), 0);
            }
            let ap = self.arena.as_mut_ptr();
            let mut pp = [ap as *const u64; A];
            for i in 0..A {
                // SAFETY: offsets point at lists (or slot 0) strictly
                // below `arena_len <= arena.len()`.
                pp[i] = unsafe { ap.add(off[i]) };
            }
            // SAFETY: the region [r, r + cap) was just sized above.
            let mut wp = unsafe { ap.add(r) };

            // The inertial state machine, kept branch-free: `cur` is the
            // committed value, `pv` the last evaluation, `pk` the pending
            // commit's key (SENTINEL when nothing is in flight). All are
            // 0/1 words (or a key) updated with compare-and-mask
            // arithmetic, because the commit/supersede decisions are
            // data-dependent and unpredictable — a mask update costs a
            // couple of ALU ops, a mispredicted branch ~15 cycles.
            let mut cur = (sg >> j) & 1;
            let mut pv = cur;
            let mut pk = SENTINEL;
            loop {
                let mut ks = [0u64; A];
                for i in 0..A {
                    // SAFETY: cursors point at slot 0, into a toggle
                    // list, or at its terminator — all initialized arena
                    // slots.
                    ks[i] = unsafe { *pp[i] };
                }
                let mut k = ks[0];
                for &key in ks.iter().skip(1) {
                    k = k.min(key);
                }
                if k == SENTINEL {
                    break;
                }
                // Maturity first: a pending commit at or before this
                // epoch lands now. A commit back to the current value is
                // a filtered pulse — consumed, but no toggle (push masked
                // off). The store is unconditional; only the cursor bump
                // is conditional.
                let mature = 0u64.wrapping_sub((pk <= k) as u64);
                let push = mature & 0u64.wrapping_sub(pv ^ cur);
                // SAFETY: at most one commit per consumed toggle plus the
                // tail; the region was sized for all of them.
                unsafe { *wp = pk };
                wp = unsafe { wp.add((push & 1) as usize) };
                cur ^= (pv ^ cur) & push;
                pk |= mature;
                // Coalesce every fan-in toggle of this epoch into one
                // index-bit flip, then evaluate once — equivalent to the
                // event engine's one re-evaluation per commit epoch. An
                // advancing cursor never passes its SENTINEL terminator,
                // because SENTINEL never equals a real epoch key.
                for i in 0..A {
                    let adv = ks[i] == k;
                    idx ^= (adv as u32) << i;
                    // SAFETY: an advanced cursor lands at most on its
                    // list's terminator.
                    pp[i] = unsafe { pp[i].add(adv as usize) };
                }
                let out = ((tt >> idx) & 1) as u64;
                // An output change (re-)schedules a commit, superseding
                // any still-pending one — the event engine's lazy
                // cancellation of its single in-flight event per net.
                let change = 0u64.wrapping_sub(out ^ pv);
                pk = (pk & !change) | (((k & dmask) + dadd) & change);
                pv = out;
            }
            // The last pending commit matures after every input toggle.
            let tail = 0u64.wrapping_sub((pk != SENTINEL) as u64 & (pv ^ cur));
            unsafe { *wp = pk };
            wp = unsafe { wp.add((tail & 1) as usize) };
            cur ^= (pv ^ cur) & tail;

            // Record the slice and terminator. A zero-length slice's
            // entry is never read (its activity bit stays clear).
            // SAFETY: both pointers derive from `ap` within the sized
            // region.
            let len = unsafe { wp.offset_from(ap.add(r)) } as usize;
            unsafe { *wp = SENTINEL };
            self.ev_sl[gbase | j as usize] = (r as u64) << 32 | len as u64;
            out_word |= ((len != 0) as u64) << j;
            debug_assert_eq!(
                cur,
                (self.words[g] >> j) & 1,
                "replayed value of net {g} disagrees with the bit-parallel pass"
            );
            self.arena_len = r + len + 1;
        }
        self.ev_word[g] = out_word;
        self.replay_evals += consumed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimingSimulator;
    use tevot_netlist::fu::FunctionalUnit;
    use tevot_netlist::NetlistBuilder;
    use tevot_timing::{DelayAnnotation, DelayModel, OperatingCondition};

    fn event_cycles(
        nl: &Netlist,
        ann: &DelayAnnotation,
        vectors: &[Vec<bool>],
    ) -> Vec<CycleResult> {
        let mut sim = TimingSimulator::new(nl, ann);
        vectors.iter().map(|v| sim.step(v)).collect()
    }

    #[test]
    fn engine_names_round_trip() {
        for e in Engine::ALL {
            assert_eq!(Engine::from_name(e.name()), Some(e));
        }
        assert_eq!(Engine::from_name("warp"), None);
        assert_eq!(Engine::default(), Engine::Levelized);
        assert_eq!(Engine::Levelized.to_string(), "levelized");
    }

    #[test]
    fn matches_event_engine_on_int_add() {
        let fu = FunctionalUnit::IntAdd;
        let nl = fu.build();
        let ann = DelayModel::tsmc45_like().annotate(&nl, OperatingCondition::new(0.85, 50.0));
        // 130 vectors: spans three bit-sliced blocks including a short tail.
        let vectors: Vec<Vec<bool>> = (0..130u32)
            .map(|i| {
                let a = i.wrapping_mul(0x9E37_79B9);
                let b = i.wrapping_mul(0x85EB_CA6B) ^ 0xDEAD_BEEF;
                fu.encode_operands(a, b)
            })
            .collect();
        let expect = event_cycles(&nl, &ann, &vectors);
        let got = LevelizedSimulator::new(&nl, &ann).run(&vectors);
        assert_eq!(got, expect);
    }

    #[test]
    fn identical_vectors_produce_no_toggles() {
        let fu = FunctionalUnit::IntAdd;
        let nl = fu.build();
        let ann = DelayModel::tsmc45_like().annotate(&nl, OperatingCondition::nominal());
        let v = fu.encode_operands(42, 43);
        let cycles = LevelizedSimulator::new(&nl, &ann).run(&[v.clone(), v]);
        assert_eq!(cycles[1].dynamic_delay_ps(), 0);
        assert!(cycles[1].toggles().is_empty());
        assert_eq!(fu.decode_output(cycles[1].settled_outputs()), 85);
    }

    #[test]
    fn zero_delay_cells_replay_exactly() {
        // A zero-delay inverter between two unit-delay gates provokes the
        // event engine's same-timestep wave cascade; the (time, wave) keys
        // must reproduce it, including any double toggle at one instant.
        let mut b = NetlistBuilder::new("zd");
        let x = b.input("x");
        let y = b.input("y");
        let n1 = b.xor(x, y);
        let n2 = b.not(n1); // zero delay
        let n3 = b.and(n2, x);
        let n4 = b.or(n3, n1);
        b.output("o", n4);
        b.output("p", n2);
        let nl = b.finish();
        let mut delays = vec![0u32; nl.num_nets()];
        delays[n1.index()] = 3;
        delays[n2.index()] = 0;
        delays[n3.index()] = 0;
        delays[n4.index()] = 2;
        let ann = DelayAnnotation::new("zd", OperatingCondition::nominal(), delays);
        let vectors: Vec<Vec<bool>> = (0..16u32).map(|i| vec![i & 1 != 0, i & 2 != 0]).collect();
        let expect = event_cycles(&nl, &ann, &vectors);
        let got = LevelizedSimulator::new(&nl, &ann).run(&vectors);
        assert_eq!(got, expect);
    }

    #[test]
    fn wide_gates_replay_like_the_event_engine() {
        let mut b = NetlistBuilder::new("wide");
        let ins: Vec<_> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
        let all = b.and4(ins[0], ins[1], ins[2], ins[3]);
        let any = b.or4(ins[0], ins[1], ins[2], ins[3]);
        let both = b.xor(all, any);
        b.output("all", all);
        b.output("b", both);
        let nl = b.finish();
        let ann = DelayModel::tsmc45_like().annotate(&nl, OperatingCondition::nominal());
        let vectors: Vec<Vec<bool>> =
            (0..32u32).map(|i| (0..4).map(|k| (i * 7 + 3) >> k & 1 == 1).collect()).collect();
        let expect = event_cycles(&nl, &ann, &vectors);
        let got = LevelizedSimulator::new(&nl, &ann).run(&vectors);
        assert_eq!(got, expect);
    }

    #[test]
    fn with_initial_inputs_matches_event_engine() {
        let fu = FunctionalUnit::FpAdd;
        let nl = fu.build();
        let ann = DelayModel::tsmc45_like().annotate(&nl, OperatingCondition::new(0.9, 75.0));
        let init = fu.encode_operands(0x3F80_0000, 0x4000_0000);
        let vectors: Vec<Vec<bool>> = (0..10u32)
            .map(|i| fu.encode_operands(0x3F80_0000 + i * 977, 0x4100_0000 - i * 31))
            .collect();
        let mut ev = TimingSimulator::with_initial_inputs(&nl, &ann, &init);
        let expect: Vec<CycleResult> = vectors.iter().map(|v| ev.step(v)).collect();
        let got = LevelizedSimulator::with_initial_inputs(&nl, &ann, &init).run(&vectors);
        assert_eq!(got, expect);
    }
}
