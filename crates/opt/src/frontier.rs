//! Algorithm 4: the frontier-based dynamic program for general DAGs
//! (§6).
//!
//! The frontier cuts the graph into an optimized and an unoptimized
//! portion. Vertices along the frontier that share an ancestor cannot
//! be optimized independently (they must share the sub-computation), so
//! the algorithm maintains *joint* cost tables `F(V, p)` over
//! equivalence classes `V` of frontier vertices, keyed by one physical
//! format per vertex in the class (§6.1). Moving a vertex across the
//! frontier merges the classes of its producers, applies the
//! Equation (2) recurrence, and marginalizes out vertices with no
//! remaining consumers.
//!
//! ## Implementation notes
//!
//! The naive recurrence enumerates `entries × implementations ×
//! format-combinations` per vertex. Two refinements keep this
//! tractable without changing the optimum:
//!
//! * **Arrival maps** — for a fixed vector of producer formats, the
//!   best `(transformations, implementation)` choice per output format
//!   is independent of the rest of the joint key, so it is computed
//!   once per distinct producer-format vector and reused across all
//!   joint entries sharing it.
//! * **Beam cap** — joint tables grow as `|P|^c` in the class size `c`
//!   (§6.3). [`frontier_dp`] is exact; [`frontier_dp_beam`] keeps only
//!   the `beam` cheapest joint states per table, which is exact
//!   whenever tables stay under the cap and a principled approximation
//!   beyond it (deep back-propagation graphs like the paper's 57-vertex
//!   FFNN legitimately exceed exact tractability — the test-suite
//!   checks beam plans against brute force on small DAGs).
//!
//! The Equation (2) cross product visits up to millions of joint
//! entries per graph, so it hashes and allocates nothing per entry:
//!
//! * **Packed keys** — each run interns its physical formats to small
//!   integer ids, and a joint key is one 16-bit lane per class member.
//!   Keys of one table live as fixed-stride rows of a flat arena. Class
//!   tables are parallel `keys` / `(cost, trace)` vectors, only ever
//!   iterated; arrival maps are indexed by the packed producer-format
//!   key, deduplicated through an open-addressed index under a small
//!   multiplicative hash with a finalizer.
//! * **Dense joint index** — a new key is the retained lanes of each
//!   merged table, in table order, then the output format. Within one
//!   merged table every entry's retained lanes fall in exactly one
//!   group, so before the cross product each table's entries are
//!   grouped once (a table with no retained member is one group, one
//!   that retains every member has a group per entry). A candidate's
//!   key is then the mixed-radix cell `(group per table, output format
//!   rank)` of a dense array that maps cells to slots, with no hashing.
//!   There are at most `combinations × output formats` cells, so the
//!   array is no larger than the work the loop already does.
//! * **Lazy traces and keys** — while the cross product runs, a joint
//!   slot holds its cost, the arrival entry that produced it and the
//!   linear index of the merged-table combination. Only the entries
//!   that survive the beam cut get a trace step and a key row, decoded
//!   from that index; the beam decodes keys only to break cost ties.
//! * **Flat trace arenas** — a trace step holds ranges into one
//!   per-run arena of transformations and one of parent traces;
//!   survivors of one arrival entry share its transformation range.
//! * **Deterministic ties** — tables keep their entries in discovery
//!   order, the cross product runs over them in that order, and a
//!   slot only moves to a strictly cheaper candidate. The beam keeps
//!   the `beam` smallest entries under the total order
//!   `(cost, packed key)`, and the final minimum of a table is its
//!   first cheapest entry. Planning one graph twice therefore gives
//!   the same annotation. Costs are summed in the same order as in
//!   Equation (2): merged-table costs in table order, then the arrival
//!   cost.

use crate::common::{transform_cost, vertex_options, OptContext, OptError, Optimized};
use matopt_core::{
    Annotation, ComputeGraph, ImplId, MatrixType, NodeId, NodeKind, PhysFormat, Transform,
    VertexChoice,
};
use matopt_obs::Subsystem;
use std::collections::HashMap;
use std::ops::Range;

/// Index into the trace arena.
type TraceId = usize;

/// One lane of a packed joint key: a run-local format id.
type Lane = u16;

/// How an entry was produced, for plan reconstruction.
#[derive(Debug, Clone)]
enum TraceStep {
    /// A source vertex: nothing to annotate.
    Source,
    /// A compute vertex was moved across the frontier.
    Compute {
        vertex: NodeId,
        impl_id: ImplId,
        output_format: PhysFormat,
        /// The input transformations, a range of [`Traces::transforms`].
        transforms: Range<usize>,
        /// The trace of the chosen entry of each merged parent table, a
        /// range of [`Traces::parents`].
        parents: Range<usize>,
    },
}

/// The trace steps of one run, with the variable-length parts of every
/// step in two shared arenas.
#[derive(Default)]
struct Traces {
    steps: Vec<TraceStep>,
    transforms: Vec<Transform>,
    parents: Vec<TraceId>,
}

impl Traces {
    fn push(&mut self, step: TraceStep) -> TraceId {
        self.steps.push(step);
        self.steps.len() - 1
    }
}

/// A joint cost table for one equivalence class along the frontier.
#[derive(Debug, Clone)]
struct ClassTable {
    /// The class members; key rows align with this ordering.
    verts: Vec<NodeId>,
    /// Packed keys, one row of `verts.len()` lanes per entry.
    keys: Vec<Lane>,
    /// `F(V, p)` with back-traces, aligned with the key rows.
    entries: Vec<(f64, TraceId)>,
}

impl ClassTable {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The format lane of class member `pos` in entry `entry`.
    fn lane(&self, entry: usize, pos: usize) -> Lane {
        self.keys[entry * self.verts.len() + pos]
    }
}

/// The physical formats seen in one run, interned to lanes.
#[derive(Default)]
struct Formats {
    list: Vec<PhysFormat>,
    ids: HashMap<PhysFormat, Lane>,
}

impl Formats {
    fn id(&mut self, f: PhysFormat) -> Lane {
        if let Some(id) = self.ids.get(&f) {
            return *id;
        }
        let id = Lane::try_from(self.list.len())
            .expect("a plan sees fewer than 65,536 distinct physical formats");
        self.list.push(f);
        self.ids.insert(f, id);
        id
    }

    fn get(&self, id: Lane) -> PhysFormat {
        self.list[usize::from(id)]
    }
}

/// Hashes a packed key: a small multiplicative fold over the lanes,
/// then the 64-bit MurmurHash3 finalizer, which spreads every input bit
/// over the high half that picks index slots and tags.
fn hash_lanes(lanes: &[Lane]) -> u64 {
    let mut h = lanes.iter().fold(0x243F_6A88_85A3_08D3, |h: u64, l| {
        (h.rotate_left(5) ^ u64::from(*l)).wrapping_mul(0x517C_C1B7_2722_0A95)
    });
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// A set of packed keys of one fixed stride: rows in a flat arena,
/// numbered in insertion order, found through an open-addressed index
/// with linear probing.
struct KeySet {
    stride: usize,
    lanes: Vec<Lane>,
    /// `tag << 32 | id` per occupied slot, [`KeySet::EMPTY`] otherwise;
    /// the tag is the high half of the key's hash, and its low bits
    /// pick the home slot. The length is a power of two.
    index: Vec<u64>,
}

impl KeySet {
    const EMPTY: u64 = u64::MAX;

    fn new(stride: usize) -> KeySet {
        KeySet {
            stride,
            lanes: Vec::new(),
            index: vec![Self::EMPTY; 16],
        }
    }

    fn len(&self) -> usize {
        self.lanes.len() / self.stride
    }

    fn key(&self, id: usize) -> &[Lane] {
        &self.lanes[id * self.stride..(id + 1) * self.stride]
    }

    /// The id of `key`, whose hash is `hash`, inserting it when new.
    /// The flag is true when the key was inserted.
    fn insert(&mut self, key: &[Lane], hash: u64) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.stride);
        let tag = hash >> 32;
        let mask = self.index.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.index[i];
            if slot == Self::EMPTY {
                break;
            }
            let id = (slot & 0xFFFF_FFFF) as usize;
            if slot >> 32 == tag && self.key(id) == key {
                return (id, false);
            }
            i = (i + 1) & mask;
        }
        let id = self.len();
        // `u32::MAX` stays free so no occupied slot reads as EMPTY.
        let id32 = u32::try_from(id)
            .ok()
            .filter(|i| *i != u32::MAX)
            .expect("a joint table holds fewer than 2^32 - 1 entries");
        self.index[i] = tag << 32 | u64::from(id32);
        self.lanes.extend_from_slice(key);
        if 2 * self.len() > self.index.len() {
            self.grow();
        }
        (id, true)
    }

    fn grow(&mut self) {
        let mut index = vec![Self::EMPTY; self.index.len() * 2];
        let mask = index.len() - 1;
        for slot in self.index.iter().filter(|s| **s != Self::EMPTY) {
            let mut i = (slot >> 32) as usize & mask;
            while index[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            index[i] = *slot;
        }
        self.index = index;
    }
}

/// The cheapest way to produce one output format of `v` from one
/// producer-format vector.
struct Arrival {
    out: Lane,
    /// Rank of `out` among the vertex's distinct output formats.
    out_rank: usize,
    /// Transformations plus implementation.
    cost: f64,
    /// Index into the vertex's options.
    option: usize,
    /// Id of the producer-format vector in the arrival key set.
    producers: usize,
}

/// A new-table slot during the cross product: the best cost so far and
/// what produced it, from which the trace and key are built if the slot
/// survives the beam cut.
#[derive(Clone, Copy)]
struct JointSlot {
    cost: f64,
    /// Index into the vertex's arrivals.
    arrival: usize,
    /// Mixed-radix index of the merged-table entry combination, the
    /// first merged table varying fastest.
    combo: u64,
}

/// An unset cell of the dense joint index.
const UNSET: u32 = u32::MAX;

/// Groups the entries of `table` by their lanes at the retained
/// `positions`. Returns each entry's group, numbered in discovery order,
/// and the group count. A table with no retained member is one group;
/// one that retains every member has one group per entry, as its keys
/// are distinct.
fn group_entries(table: &ClassTable, positions: &[usize]) -> (Vec<usize>, usize) {
    if positions.is_empty() {
        return (vec![0; table.len()], 1);
    }
    if positions.len() == table.verts.len() {
        return ((0..table.len()).collect(), table.len());
    }
    let mut set = KeySet::new(positions.len());
    let mut lanes: Vec<Lane> = vec![0; positions.len()];
    let ids: Vec<usize> = (0..table.len())
        .map(|e| {
            for (lane, pos) in lanes.iter_mut().zip(positions) {
                *lane = table.lane(e, *pos);
            }
            set.insert(&lanes, hash_lanes(&lanes)).0
        })
        .collect();
    (ids, set.len())
}

/// Memoized edge-transformation lookups of one vertex, a flat
/// `(input, from, to)` table over the run's interned formats.
struct TransformTable<'a> {
    formats: usize,
    in_types: &'a [MatrixType],
    cells: Vec<Option<Option<(Transform, f64)>>>,
}

impl<'a> TransformTable<'a> {
    fn new(in_types: &'a [MatrixType], formats: usize) -> Self {
        TransformTable {
            formats,
            in_types,
            cells: vec![None; in_types.len() * formats * formats],
        }
    }

    fn get(
        &mut self,
        input: usize,
        from: Lane,
        to: Lane,
        formats: &Formats,
        octx: &OptContext<'_>,
    ) -> Option<(Transform, f64)> {
        let cell = (input * self.formats + usize::from(from)) * self.formats + usize::from(to);
        *self.cells[cell].get_or_insert_with(|| {
            transform_cost(
                &self.in_types[input],
                formats.get(from),
                formats.get(to),
                octx.plan,
                octx.model,
            )
        })
    }
}

/// Runs Algorithm 4 exactly (no beam cap).
///
/// ```
/// use matopt_core::*;
/// use matopt_cost::AnalyticalCostModel;
/// use matopt_opt::{frontier_dp, OptContext};
///
/// let mut g = ComputeGraph::new();
/// let a = g.add_source(MatrixType::dense(100, 10_000), PhysFormat::RowStrip { height: 10 });
/// let b = g.add_source(MatrixType::dense(10_000, 100), PhysFormat::ColStrip { width: 10 });
/// let ab = g.add_op(Op::MatMul, &[a, b]).unwrap();
///
/// let registry = ImplRegistry::paper_default();
/// let catalog = FormatCatalog::paper_default();
/// let ctx = PlanContext::new(&registry, Cluster::simsql_like(5));
/// let model = AnalyticalCostModel;
/// let plan = frontier_dp(&g, &OptContext::new(&ctx, &catalog, &model)).unwrap();
/// assert!(plan.annotation.choice(ab).is_some());
/// assert!(validate(&g, &plan.annotation, &ctx).is_ok());
/// ```
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when some vertex admits no type-correct
/// implementation on this cluster.
pub fn frontier_dp(graph: &ComputeGraph, octx: &OptContext<'_>) -> Result<Optimized, OptError> {
    frontier_dp_inner(graph, octx, usize::MAX)
}

/// Runs Algorithm 4 with joint tables capped at `beam` entries
/// (cheapest kept). Exact whenever no table exceeds the cap; the
/// returned [`Optimized::beam_truncated`] counts the joint states
/// dropped by the cap (0 ⇒ the search was exact), so callers can report
/// `"exact"` vs `"beamed"` via [`Optimized::exactness`].
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when some vertex admits no type-correct
/// implementation on this cluster.
pub fn frontier_dp_beam(
    graph: &ComputeGraph,
    octx: &OptContext<'_>,
    beam: usize,
) -> Result<Optimized, OptError> {
    frontier_dp_inner(graph, octx, beam.max(1))
}

fn frontier_dp_inner(
    graph: &ComputeGraph,
    octx: &OptContext<'_>,
    beam: usize,
) -> Result<Optimized, OptError> {
    let started = std::time::Instant::now();
    let _phase = octx.obs.span_with(Subsystem::Optimizer, "frontier_dp", || {
        vec![
            ("vertices", graph.len().into()),
            ("compute_vertices", graph.compute_count().into()),
            ("exact", (beam == usize::MAX).into()),
        ]
    });
    let consumers = graph.consumers();
    let mut beam_truncated = 0usize;
    let mut visited = vec![false; graph.len()];
    let mut formats = Formats::default();
    let mut traces = Traces::default();
    // Live tables; `None` marks consumed (merged) slots.
    let mut front: Vec<Option<ClassTable>> = Vec::new();
    // Where each frontier vertex currently lives.
    let mut table_of: Vec<usize> = vec![usize::MAX; graph.len()];

    for (id, node) in graph.iter() {
        match &node.kind {
            NodeKind::Source { format } => {
                // Lines 2–7: sources are already optimized.
                visited[id.index()] = true;
                let trace = traces.push(TraceStep::Source);
                table_of[id.index()] = front.len();
                front.push(Some(ClassTable {
                    verts: vec![id],
                    keys: vec![formats.id(*format)],
                    entries: vec![(0.0, trace)],
                }));
            }
            NodeKind::Compute { .. } => {
                beam_truncated += process_vertex(
                    graph,
                    octx,
                    id,
                    &consumers,
                    &mut visited,
                    &mut front,
                    &mut table_of,
                    &mut formats,
                    &mut traces,
                    beam,
                )?;
            }
        }
    }

    // Every vertex is optimized; sum the minima of the surviving tables
    // and walk the traces back into an annotation.
    let mut annotation = Annotation::empty(graph);
    let mut total = 0.0;
    for table in front.iter().flatten() {
        let (cost, trace) = table
            .entries
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("non-empty table");
        total += cost;
        let mut stack = vec![*trace];
        while let Some(t) = stack.pop() {
            match &traces.steps[t] {
                TraceStep::Source => {}
                TraceStep::Compute {
                    vertex,
                    impl_id,
                    output_format,
                    transforms,
                    parents,
                } => {
                    annotation.set(
                        *vertex,
                        VertexChoice {
                            impl_id: *impl_id,
                            input_transforms: traces.transforms[transforms.clone()].to_vec(),
                            output_format: *output_format,
                        },
                    );
                    stack.extend_from_slice(&traces.parents[parents.clone()]);
                }
            }
        }
    }
    Ok(Optimized {
        annotation,
        cost: total,
        beam_truncated,
        timed_out: false,
        opt_seconds: started.elapsed().as_secs_f64(),
    })
}

/// Moves `v` from the unoptimized to the optimized portion (lines 8–17
/// of Algorithm 4), merging the parent classes and applying the
/// Equation (2) recurrence. Returns the number of joint states the beam
/// cap dropped at this step (0 when the step was exact).
#[allow(clippy::too_many_arguments)]
fn process_vertex(
    graph: &ComputeGraph,
    octx: &OptContext<'_>,
    v: NodeId,
    consumers: &[Vec<NodeId>],
    visited: &mut [bool],
    front: &mut Vec<Option<ClassTable>>,
    table_of: &mut [usize],
    formats: &mut Formats,
    traces: &mut Traces,
    beam: usize,
) -> Result<usize, OptError> {
    let node = graph.node(v);
    visited[v.index()] = true;

    // Line 10: the classes V_F_1, V_F_2, ... containing producers of v.
    let mut merged_idx: Vec<usize> = Vec::new();
    for input in &node.inputs {
        let ti = table_of[input.index()];
        debug_assert_ne!(ti, usize::MAX, "producer on the frontier");
        if !merged_idx.contains(&ti) {
            merged_idx.push(ti);
        }
    }
    let merged: Vec<ClassTable> = merged_idx
        .iter()
        .map(|i| front[*i].take().expect("live table"))
        .collect();
    let _step = octx
        .obs
        .span_with(Subsystem::Optimizer, "frontier_step", || {
            let label = graph.node(v).name.clone().unwrap_or_else(|| v.to_string());
            vec![
                ("vertex", v.index().into()),
                ("label", label.into()),
                ("merged_tables", merged.len().into()),
                (
                    "merged_entries",
                    merged.iter().map(ClassTable::len).sum::<usize>().into(),
                ),
            ]
        });

    // Where each input vertex sits: (merged table index, position).
    let locate = |u: NodeId| -> (usize, usize) {
        for (ti, t) in merged.iter().enumerate() {
            if let Some(pos) = t.verts.iter().position(|x| *x == u) {
                return (ti, pos);
            }
        }
        unreachable!("input must be in a merged table")
    };
    let input_loc: Vec<(usize, usize)> = node.inputs.iter().map(|u| locate(*u)).collect();

    // Line 13: vertices that keep a role on the frontier (some consumer
    // still unvisited). `v` itself is always retained; it is dropped by
    // a later merge once its consumers are optimized.
    let mut retained: Vec<(usize, usize)> = Vec::new();
    let mut verts: Vec<NodeId> = Vec::new();
    for (ti, t) in merged.iter().enumerate() {
        for (pos, u) in t.verts.iter().enumerate() {
            if consumers[u.index()].iter().any(|c| !visited[c.index()]) {
                retained.push((ti, pos));
                verts.push(*u);
            }
        }
    }
    verts.push(v);

    // Enumerate the vertex's implementation options, offering every
    // format its producers can actually emit.
    let extra: Vec<Vec<PhysFormat>> = input_loc
        .iter()
        .map(|(ti, pos)| {
            let t = &merged[*ti];
            let mut lanes: Vec<Lane> = Vec::new();
            for e in 0..t.len() {
                let lane = t.lane(e, *pos);
                if !lanes.contains(&lane) {
                    lanes.push(lane);
                }
            }
            lanes.into_iter().map(|l| formats.get(l)).collect()
        })
        .collect();
    let options = vertex_options(graph, v, octx.catalog, octx.plan, octx.model, &extra);
    if options.is_empty() {
        return Err(OptError::NoFeasiblePlan(v));
    }
    let n_in = node.inputs.len();
    let pins: Vec<Lane> = options
        .iter()
        .flat_map(|o| o.pin.iter())
        .map(|f| formats.id(*f))
        .collect();
    let outs: Vec<Lane> = options.iter().map(|o| formats.id(o.out_format)).collect();
    let in_types: Vec<MatrixType> = node.inputs.iter().map(|u| graph.node(*u).mtype).collect();
    let mut tcache = TransformTable::new(&in_types, formats.list.len());

    // Arrival maps: per distinct producer-format vector, the cheapest
    // choice per output format, as a range of `arrivals`.
    let mut producer_keys = KeySet::new(n_in);
    let mut arrival_ranges: Vec<(usize, usize)> = Vec::new();
    let mut arrivals: Vec<Arrival> = Vec::new();

    // Dense joint index. A new key is the retained lanes of each merged
    // table, in table order, then the output lane, so it is fixed by
    // each table's retained-lane group plus the output format: a cell
    // numbers that tuple in mixed radix.
    let mut out_lanes = outs.clone();
    out_lanes.sort_unstable();
    out_lanes.dedup();
    let out_rank: Vec<usize> = outs
        .iter()
        .map(|o| out_lanes.binary_search(o).expect("listed output"))
        .collect();
    let mut cells = out_lanes.len();
    let cell_offsets: Vec<Vec<usize>> = merged
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let positions: Vec<usize> = retained
                .iter()
                .filter(|(rt, _)| *rt == ti)
                .map(|(_, pos)| *pos)
                .collect();
            let (group_of, groups) = group_entries(t, &positions);
            let offsets = group_of.into_iter().map(|g| g * cells).collect();
            cells = cells
                .checked_mul(groups)
                .expect("joint cells are bounded by the cross product's size");
            offsets
        })
        .collect();
    // At most one cell per (combination, output format) pair, so the
    // index is no larger than the work the cross product does.
    let mut index = vec![UNSET; cells];

    // Equation (2): cross product of one entry per merged table, with
    // the (implementation × format) inner minimization factored into
    // the arrival map.
    let stride = verts.len();
    let mut slots: Vec<JointSlot> = Vec::new();
    let mut pick = vec![0usize; merged.len()];
    let mut combo = 0u64;
    let mut pf: Vec<Lane> = vec![0; n_in];
    'outer: loop {
        let base_cost: f64 = merged.iter().zip(&pick).map(|(t, e)| t.entries[*e].0).sum();

        // The formats this entry combination gives v's producers.
        for (lane, (ti, pos)) in pf.iter_mut().zip(&input_loc) {
            *lane = merged[*ti].lane(pick[*ti], *pos);
        }
        let (producers, fresh) = producer_keys.insert(&pf, hash_lanes(&pf));
        if fresh {
            let start = arrivals.len();
            for (oi, opt) in options.iter().enumerate() {
                let pin = &pins[oi * n_in..(oi + 1) * n_in];
                let tcost = pf
                    .iter()
                    .zip(pin)
                    .enumerate()
                    .try_fold(0.0, |sum, (j, (from, to))| {
                        tcache
                            .get(j, *from, *to, formats, octx)
                            .map(|(_, c)| sum + c)
                    });
                let Some(tcost) = tcost else {
                    continue;
                };
                let total = opt.impl_cost + tcost;
                match arrivals[start..].iter_mut().find(|a| a.out == outs[oi]) {
                    Some(a) if total < a.cost => {
                        a.cost = total;
                        a.option = oi;
                    }
                    Some(_) => {}
                    None => arrivals.push(Arrival {
                        out: outs[oi],
                        out_rank: out_rank[oi],
                        cost: total,
                        option: oi,
                        producers,
                    }),
                }
            }
            arrival_ranges.push((start, arrivals.len()));
        }

        let (start, end) = arrival_ranges[producers];
        let cell_base: usize = cell_offsets.iter().zip(&pick).map(|(o, e)| o[*e]).sum();
        for (ai, arrival) in arrivals[start..end].iter().enumerate() {
            let cost = base_cost + arrival.cost;
            let cell = cell_base + arrival.out_rank;
            let candidate = JointSlot {
                cost,
                arrival: start + ai,
                combo,
            };
            match index[cell] {
                UNSET => {
                    index[cell] = u32::try_from(slots.len())
                        .ok()
                        .filter(|i| *i != UNSET)
                        .expect("a joint table holds fewer than 2^32 - 1 entries");
                    slots.push(candidate);
                }
                id if cost < slots[id as usize].cost => slots[id as usize] = candidate,
                _ => {}
            }
        }

        combo += 1;
        for d in 0..merged.len() {
            pick[d] += 1;
            if pick[d] < merged[d].len() {
                continue 'outer;
            }
            pick[d] = 0;
        }
        break;
    }
    drop(index);

    if slots.is_empty() {
        return Err(OptError::NoFeasiblePlan(v));
    }
    // A slot's merged-table entries and joint key, decoded from its
    // combination index.
    let mut combo_radix = Vec::with_capacity(merged.len());
    let mut radix = 1u64;
    for t in &merged {
        combo_radix.push(radix);
        radix *= t.len() as u64;
    }
    let (merged, arrivals) = (&merged, &arrivals);
    let pick_of = &|combo: u64, ti: usize| -> usize {
        ((combo / combo_radix[ti]) % merged[ti].len() as u64) as usize
    };
    let key_of = |slot: JointSlot| {
        retained
            .iter()
            .map(move |(ti, pos)| merged[*ti].lane(pick_of(slot.combo, *ti), *pos))
            .chain(std::iter::once(arrivals[slot.arrival].out))
    };

    // Beam: keep only the cheapest joint states when over the cap, in
    // their discovery order.
    let mut truncated = 0usize;
    let mut keep: Vec<usize> = (0..slots.len()).collect();
    if keep.len() > beam {
        truncated = keep.len() - beam;
        keep.select_nth_unstable_by(beam, |a, b| {
            let (a, b) = (slots[*a], slots[*b]);
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| key_of(a).cmp(key_of(b)))
        });
        keep.truncate(beam);
        keep.sort_unstable();
        octx.obs
            .counter(Subsystem::Optimizer, "beam_truncated", truncated as f64);
    }

    // Trace steps and key rows for the survivors only.
    let mut arrival_transforms: Vec<Option<Range<usize>>> = vec![None; arrivals.len()];
    let mut keys = Vec::with_capacity(keep.len() * stride);
    let mut entries = Vec::with_capacity(keep.len());
    for id in keep {
        let slot = slots[id];
        let arrival = &arrivals[slot.arrival];
        // Survivors of one arrival share its transformations.
        let transforms = arrival_transforms[slot.arrival]
            .get_or_insert_with(|| {
                let pf = producer_keys.key(arrival.producers);
                let pin = &pins[arrival.option * n_in..(arrival.option + 1) * n_in];
                let start = traces.transforms.len();
                for j in 0..n_in {
                    let (t, _) = tcache
                        .get(j, pf[j], pin[j], formats, octx)
                        .expect("arrivals only use feasible transformations");
                    traces.transforms.push(t);
                }
                start..traces.transforms.len()
            })
            .clone();
        for (ti, e) in pick.iter_mut().enumerate() {
            *e = pick_of(slot.combo, ti);
        }
        let parents = traces.parents.len()..traces.parents.len() + merged.len();
        traces
            .parents
            .extend(merged.iter().zip(&pick).map(|(t, e)| t.entries[*e].1));
        let trace = traces.push(TraceStep::Compute {
            vertex: v,
            impl_id: options[arrival.option].impl_id,
            output_format: formats.get(arrival.out),
            transforms,
            parents,
        });
        keys.extend(
            retained
                .iter()
                .map(|(ti, pos)| merged[*ti].lane(pick[*ti], *pos)),
        );
        keys.push(arrival.out);
        entries.push((slot.cost, trace));
    }

    // The post-step class size is the `c` of the §6.3 `|P|^c` bound;
    // together with the table size it explains where the optimizer's
    // time goes (cf. `trace::frontier_classes`).
    octx.obs.record(Subsystem::Optimizer, "joint_table", || {
        vec![
            ("vertex", v.index().into()),
            ("class_size", verts.len().into()),
            ("entries", entries.len().into()),
            ("truncated", truncated.into()),
        ]
    });
    let new_idx = front.len();
    for u in &verts {
        table_of[u.index()] = new_idx;
    }
    front.push(Some(ClassTable {
        verts,
        keys,
        entries,
    }));
    Ok(truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_group_by_their_retained_lanes() {
        // Three members; entries listed as key rows.
        let rows: [[Lane; 3]; 5] = [[0, 1, 2], [0, 2, 2], [1, 1, 2], [0, 1, 3], [1, 1, 3]];
        let table = ClassTable {
            verts: (0..3).map(NodeId).collect(),
            keys: rows.concat(),
            entries: (0..rows.len()).map(|e| (0.0, e)).collect(),
        };
        // Groups are numbered in discovery order.
        assert_eq!(group_entries(&table, &[0, 1]), (vec![0, 1, 2, 0, 2], 3));
        assert_eq!(group_entries(&table, &[2]), (vec![0, 0, 0, 1, 1], 2));
        assert_eq!(group_entries(&table, &[]), (vec![0; 5], 1));
        assert_eq!(group_entries(&table, &[0, 1, 2]), ((0..5).collect(), 5));
    }

    #[test]
    fn key_set_numbers_distinct_keys_across_growth() {
        // A stride past 16 lanes and enough keys to grow the index
        // several times; every key keeps its first id.
        let stride = 20;
        let key_of = |n: u16| -> Vec<Lane> { (0..stride as u16).map(|p| (n + p) % 23).collect() };
        let mut set = KeySet::new(stride);
        for n in 0..500u16 {
            let key = key_of(n);
            let (id, fresh) = set.insert(&key, hash_lanes(&key));
            // Keys repeat with period 23.
            assert_eq!(fresh, n < 23, "key {n}");
            assert_eq!(id, usize::from(n % 23));
            assert_eq!(set.key(id), key.as_slice());
        }
        assert_eq!(set.len(), 23);
        let mut big = KeySet::new(stride);
        for n in 0..5000u16 {
            let mut key = key_of(n);
            key[0] = n;
            assert_eq!(big.insert(&key, hash_lanes(&key)), (usize::from(n), true));
        }
        for n in 0..5000u16 {
            let mut key = key_of(n);
            key[0] = n;
            assert_eq!(big.insert(&key, hash_lanes(&key)), (usize::from(n), false));
        }
    }
}
