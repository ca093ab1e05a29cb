(* Anytime sampling SVC estimator: ApproShapley permutation sampling.

   Everything here is exact rational arithmetic over integer draw sums:
   the only randomness is the seeded PRNG, so a run is a pure function
   of (lineage, universe, config) — the determinism contract the test
   layer pins (same seed => bit-identical report at any jobs count).

   Sh(μ) is the expected marginal contribution of μ to the coalition of
   facts that precede it in a uniform random permutation of U, so one
   permutation yields one draw for every fact at once, and the Hoeffding
   width at a shared draw count is the same for every fact.

   A draw allocates nothing: the generator's state is unboxed and
   reseeded in place, and the lineage sweeps recurse without closures,
   so a run's allocation is its set-up, its report and the width
   arithmetic of each 64-draw round. *)

(* Kept, with [config]'s ignored [?strategy], only for
   perfbench/svcbench.ml, which still names the estimator it wants. *)
type strategy = Monte_carlo

type config = {
  seed : int;
  epsilon : Rational.t;
  confidence : Rational.t;
  max_draws : int;
}

let default =
  {
    seed = 0;
    epsilon = Rational.of_ints 1 20;
    confidence = Rational.of_ints 19 20;
    max_draws = 4096;
  }

(* Draws between stopping-rule checks. *)
let batch = 64

let validate cfg =
  if Rational.sign cfg.epsilon <= 0 then
    invalid_arg "Sample: epsilon must be > 0";
  if Rational.sign cfg.confidence <= 0
     || not (Rational.lt cfg.confidence Rational.one) then
    invalid_arg "Sample: confidence must be in (0, 1)";
  if cfg.max_draws < 1 then invalid_arg "Sample: max_draws must be >= 1"

let config ?strategy:(_ : strategy option) ?(seed = default.seed)
    ?(epsilon = default.epsilon) ?(confidence = default.confidence)
    ?(max_draws = default.max_draws) () =
  let cfg = { seed; epsilon; confidence; max_draws } in
  validate cfg;
  cfg

type estimate = {
  fact : Fact.t;
  value : Rational.t;
  half_width : Rational.t;
}

type report = {
  estimates : estimate array;
  total_draws : int;
  total_evals : int;
  max_half_width : Rational.t;
  familywise_half_width : Rational.t;
  all_converged : bool;
}

(* ------------------------------------------------------------------ *)
(* Seeded PRNG                                                         *)
(* ------------------------------------------------------------------ *)

module Rng = struct
  (* The xorshift64* state, unboxed in 8 bytes: a mutable [int64] field
     would box a fresh word on every step. *)
  type t = Bytes.t

  let golden = 0x9E3779B97F4A7C15L

  (* splitmix64's output mixer: a bijection on 64-bit words with full
     avalanche, used both to seed and to derive substreams *)
  let[@inline] mix64 z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let[@inline] root seed = mix64 (Int64.add (Int64.of_int seed) golden)

  let[@inline] child z i =
    mix64 (Int64.add (Int64.mul z 0x100000001B3L) (Int64.of_int (i + 1)))

  (* xorshift64* needs a nonzero state *)
  let[@inline] set t z =
    Bytes.set_int64_ne t 0 (if Int64.equal z 0L then golden else z)

  let of_state z =
    let t = Bytes.create 8 in
    set t z;
    t

  let create seed = of_state (root seed)
  let of_path seed path = of_state (List.fold_left child (root seed) path)

  (* [t] becomes [of_path seed [ p ]]: a draw's substream without a
     fresh generator per draw *)
  let reset t seed p = set t (child (root seed) p)

  (* inlined, so its callers keep the word unboxed too *)
  let[@inline] next t =
    let s = Bytes.get_int64_ne t 0 in
    let s = Int64.logxor s (Int64.shift_left s 13) in
    let s = Int64.logxor s (Int64.shift_right_logical s 7) in
    let s = Int64.logxor s (Int64.shift_left s 17) in
    Bytes.set_int64_ne t 0 s;
    Int64.mul s 0x2545F4914F6CDD1DL

  let int t bound =
    if bound <= 0 then invalid_arg "Sample.Rng.int: bound must be positive";
    (* modulo of 63 uniform bits: bias < 2^-50 for any practical bound *)
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let bool t = Int64.equal (Int64.logand (next t) 1L) 1L
end

(* ------------------------------------------------------------------ *)
(* Confidence bounds                                                   *)
(* ------------------------------------------------------------------ *)

module Bound = struct
  let log_term ~confidence ~intervals =
    let delta = Rational.sub Rational.one confidence in
    let delta' = Rational.div delta (Rational.of_int intervals) in
    Rational.ln_upper (Rational.div (Rational.of_int 2) delta')

  let hoeffding ~range ~log_term ~m =
    Rational.mul range
      (Rational.sqrt_upper (Rational.div log_term (Rational.of_int (2 * m))))
end

(* ------------------------------------------------------------------ *)
(* Lineage evaluation over an indexed universe                         *)
(* ------------------------------------------------------------------ *)

(* The compiled Bform is re-indexed over int variables so a draw is one
   O(|φ|) sweep against a mutable array — no Fact.Set allocation per
   evaluation (Bform.eval would build one per probe).  The sweeps
   recurse through top-level functions only: a local closure per ∧ or
   ∨ would be a heap block per visit. *)
module Nf = struct
  type t =
    | T
    | F
    | V of int
    | And of t array
    | Or of t array
    | Not of t

  let of_bform ~index phi =
    let rec go = function
      | Bform.True -> T
      | Bform.False -> F
      | Bform.Fv f ->
        (match Hashtbl.find_opt index f with
         | Some i -> V i
         | None ->
           invalid_arg
             (Printf.sprintf "Sample: lineage mentions %s outside the universe"
                (Fact.to_string f)))
      | Bform.And l -> And (Array.of_list (List.map go l))
      | Bform.Or l -> Or (Array.of_list (List.map go l))
      | Bform.Not b -> Not (go b)
    in
    go phi

  let rec eval present = function
    | T -> true
    | F -> false
    | V i -> present.(i)
    | Not b -> not (eval present b)
    | And bs -> all present bs 0
    | Or bs -> any present bs 0

  and all present bs i =
    i >= Array.length bs || (eval present bs.(i) && all present bs (i + 1))

  and any present bs i =
    i < Array.length bs && (eval present bs.(i) || any present bs (i + 1))

  (* The least prefix length of a permutation at which a monotone
     formula holds ([max_int] if none does), where [pos.(i)] is fact i's
     position in it.  The prefixes of one permutation form a chain, so
     the formula holds at prefix k exactly when k reaches this
     threshold: a variable needs its own position, an ∧ the latest of
     its children and an ∨ the earliest.  Only a value below [cut] can
     matter to the caller, so an ∧ stops once its running max reaches
     the cut (returning a value >= it), and an ∨ passes its running min
     down as the cut. *)
  let rec threshold pos cut = function
    | T -> 0
    | F -> max_int
    | V i -> pos.(i) + 1
    | Not _ -> invalid_arg "Sample.Nf.threshold: non-monotone formula"
    | And bs -> latest pos cut bs 0 0
    | Or bs -> earliest pos cut bs 0 max_int

  and latest pos cut bs i acc =
    if i >= Array.length bs || acc >= cut then acc
    else
      let t = threshold pos cut bs.(i) in
      latest pos cut bs (i + 1) (if t > acc then t else acc)

  and earliest pos cut bs i acc =
    if i >= Array.length bs then acc
    else
      let t = threshold pos (if acc < cut then acc else cut) bs.(i) in
      earliest pos cut bs (i + 1) (if t < acc then t else acc)

  let rec monotone = function
    | T | F | V _ -> true
    | Not _ -> false
    | And bs | Or bs -> Array.for_all monotone bs
end

type ctx = {
  cfg : config;
  universe : Fact.t array;
  n : int;
  nf : Nf.t;
  mono : bool;
  present : bool array;
  evals : int ref;
}

let make_ctx cfg universe phi =
  let universe = Array.of_list universe in
  let n = Array.length universe in
  let index = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun i f ->
       if Hashtbl.mem index f then
         invalid_arg "Sample: duplicate fact in universe";
       Hashtbl.add index f i)
    universe;
  let nf = Nf.of_bform ~index phi in
  {
    cfg;
    universe;
    n;
    nf;
    mono = Nf.monotone nf;
    present = Array.make n false;
    evals = ref 0;
  }

let eval ctx =
  incr ctx.evals;
  Nf.eval ctx.present ctx.nf

let b2i b = if b then 1 else 0

(* draw support width: marginal contributions live in {0,1} for monotone
   lineages, {-1,0,1} otherwise *)
let range_of ctx = if ctx.mono then Rational.one else Rational.of_int 2

(* The report after [m] shared draws whose per-fact width is [hw]: a
   fact's estimate is its mean contribution, and the familywise width
   widens [hw]'s log term by a union bound over the n facts.  An empty
   universe takes no draw and reports width 0. *)
let finish ctx ~sums ~m ~hw =
  let cfg = ctx.cfg in
  let familywise =
    if m = 0 then Rational.zero
    else
      Bound.hoeffding ~range:(range_of ctx)
        ~log_term:
          (Bound.log_term ~confidence:cfg.confidence ~intervals:ctx.n)
        ~m
  in
  {
    estimates =
      Array.mapi
        (fun i fact ->
           { fact; value = Rational.of_ints sums.(i) m; half_width = hw })
        ctx.universe;
    total_draws = m;
    total_evals = !(ctx.evals);
    max_half_width = hw;
    familywise_half_width = familywise;
    all_converged = Rational.leq hw cfg.epsilon;
  }

let empty_report ctx = finish ctx ~sums:[||] ~m:0 ~hw:Rational.zero

(* A half-width in parts per million, rounded up (gauges and span
   attributes carry ints). *)
let ppm hw =
  let x = Rational.mul hw (Rational.of_int 1_000_000) in
  let q, r = Bigint.divmod (Rational.num x) (Rational.den x) in
  Bigint.to_int (if Bigint.is_zero r then q else Bigint.succ q)

(* The anytime loop of the estimators whose every draw serves every fact
   ([monte_carlo] and [uniform_coalitions]): rounds of [batch] draws,
   each in a [sample.round] span, until the Hoeffding width — the same
   for every fact at a shared draw count — reaches epsilon or the draw
   budget is spent.  [draw d] runs draw [d], adding each fact's marginal
   contribution to its entry of [sums].  The width a round reaches
   depends only on its draw count, so it is known before the round: the
   span carries it as [hw_ppm], and [gauge] takes it after the round, so
   a trace shows the run approach its target. *)
let shared_draws ctx tel gauge ~sums draw =
  let cfg = ctx.cfg in
  let range = range_of ctx in
  let log_term = Bound.log_term ~confidence:cfg.confidence ~intervals:1 in
  let m = ref 0 in
  let hw = ref range in
  let stop = ref false in
  while not !stop do
    let b = min batch (cfg.max_draws - !m) in
    let first = !m in
    m := first + b;
    hw := Bound.hoeffding ~range ~log_term ~m:!m;
    let hw_ppm = ppm !hw in
    Telemetry.span tel
      ~attrs:
        (if Telemetry.enabled tel then
           [ ("draws", string_of_int b); ("hw_ppm", string_of_int hw_ppm) ]
         else [])
      "sample.round"
      (fun () ->
         for d = first to first + b - 1 do
           draw d
         done);
    Telemetry.Gauge.set gauge hw_ppm;
    if Rational.leq !hw cfg.epsilon || !m >= cfg.max_draws then stop := true
  done;
  finish ctx ~sums ~m:!m ~hw:!hw

(* ------------------------------------------------------------------ *)
(* Monte-Carlo permutation sampling (ApproShapley)                     *)
(* ------------------------------------------------------------------ *)

(* One permutation yields a marginal contribution for every fact: the
   estimate of Sh(μ) is the mean of μ's contributions, the draw budget
   counts shared permutations.  Monotone lineages take the pivot fast
   path — along any permutation φ flips false→true at most once, at the
   permutation's threshold ([Nf.threshold]), so one sweep, counted as
   one evaluation, finds the pivot, and only the pivot fact's sums move.
   The Hoeffding width at shared m is the same for every fact.  Returns
   the sums and the draw that fills them. *)
let monte_carlo ctx =
  let seed = ctx.cfg.seed and n = ctx.n in
  let sums = Array.make n 0 in
  let perm = Array.init n Fun.id in
  let pos = Array.make n 0 in
  (* φ(∅) and φ(U) decide whether a monotone permutation has a pivot;
     when it has one, φ(∅) false and φ(U) true put its threshold in
     [1, n] *)
  Array.fill ctx.present 0 n false;
  let empty_true = eval ctx in
  Array.fill ctx.present 0 n true;
  let full_true = eval ctx in
  Array.fill ctx.present 0 n false;
  let constant = ctx.mono && (empty_true || not full_true) in
  let rng = Rng.create 0 in
  let one_permutation p =
    Rng.reset rng seed p;
    for i = n - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    if constant then ()
    else if ctx.mono then begin
      for i = 0 to n - 1 do
        pos.(perm.(i)) <- i
      done;
      incr ctx.evals;
      let pivot = perm.(Nf.threshold pos max_int ctx.nf - 1) in
      sums.(pivot) <- sums.(pivot) + 1
    end
    else begin
      let prev = ref empty_true in
      for i = 0 to n - 1 do
        ctx.present.(perm.(i)) <- true;
        let curv = eval ctx in
        let d = b2i curv - b2i !prev in
        sums.(perm.(i)) <- sums.(perm.(i)) + d;
        prev := curv
      done;
      Array.fill ctx.present 0 n false
    end
  in
  (sums, one_permutation)

(* Banzhaf: the value is the expected marginal contribution over one
   uniform coalition of U∖{μ}, so one shared uniform subset per draw
   serves every fact (1 + n evaluations: the subset once, then each
   fact's membership flipped). *)
let uniform_coalitions ctx =
  let seed = ctx.cfg.seed and n = ctx.n in
  let sums = Array.make n 0 in
  let rng = Rng.create 0 in
  let one_draw d =
    Rng.reset rng seed d;
    for i = 0 to n - 1 do
      ctx.present.(i) <- Rng.bool rng
    done;
    let base = b2i (eval ctx) in
    for i = 0 to n - 1 do
      let was = ctx.present.(i) in
      ctx.present.(i) <- not was;
      let flipped = b2i (eval ctx) in
      ctx.present.(i) <- was;
      (* φ with μ minus φ without it *)
      sums.(i) <- sums.(i) + (if was then base - flipped else flipped - base)
    done
  in
  (sums, one_draw)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Both entry points: [estimator] gives the sums and the draw of a
   non-empty universe, and [shared_draws] runs it.  The metrics are
   registered before the run, in the order the exporters list them. *)
let run tel cfg ~universe phi estimator =
  validate cfg;
  let ctx = make_ctx cfg universe phi in
  let draws = Telemetry.counter tel "sample.draws" in
  let evals = Telemetry.counter tel "sample.evals" in
  let hw_ppm = Telemetry.gauge tel "sample.max_hw_ppm" in
  let report =
    Telemetry.span tel "sample.eval" (fun () ->
        if ctx.n = 0 then empty_report ctx
        else
          let sums, draw = estimator ctx in
          shared_draws ctx tel hw_ppm ~sums draw)
  in
  Telemetry.Counter.add draws report.total_draws;
  Telemetry.Counter.add evals report.total_evals;
  report

let shapley ?(tel = Telemetry.disabled ()) cfg ~universe phi =
  run tel cfg ~universe phi monte_carlo

let banzhaf ?(tel = Telemetry.disabled ()) cfg ~universe phi =
  run tel cfg ~universe phi uniform_coalitions
