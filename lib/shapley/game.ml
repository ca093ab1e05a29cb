type t = { n : int; wealth : int -> Rational.t }

let make ~n ~wealth =
  if n < 0 || n > 62 then invalid_arg "Game.make: player count out of range";
  { n; wealth }

let n g = g.n
let wealth g = g.wealth

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* Equation 2: Sh(p) = Σ_{B ⊆ P\{p}} |B|!(n-|B|-1)!/n! (v(B∪{p}) - v(B)).
   Enumerate the subsets of P\{p} by iterating the sub-masks of its mask. *)
let shapley g p =
  if p < 0 || p >= g.n then invalid_arg "Game.shapley: no such player";
  let full = (1 lsl g.n) - 1 in
  let others = full land lnot (1 lsl p) in
  let n_fact = Bigint.factorial g.n in
  (* weights by |B| *)
  let weights =
    Array.init g.n (fun b ->
        Rational.make
          (Bigint.mul (Bigint.factorial b) (Bigint.factorial (g.n - b - 1)))
          n_fact)
  in
  (* iterate sub-masks of [others], including 0 *)
  let acc = ref Rational.zero in
  let sub = ref others in
  let continue = ref true in
  while !continue do
    let b = !sub in
    let delta = Rational.sub (g.wealth (b lor (1 lsl p))) (g.wealth b) in
    if not (Rational.is_zero delta) then
      acc := Rational.add !acc (Rational.mul weights.(popcount b) delta);
    if b = 0 then continue := false else sub := (b - 1) land others
  done;
  !acc

let shapley_all g = Array.init g.n (shapley g)

let shapley_permutations g p =
  if g.n > 9 then invalid_arg "Game.shapley_permutations: too many players";
  let total = ref Rational.zero in
  let count = ref 0 in
  (* enumerate permutations of 0..n-1 *)
  let arr = Array.init g.n (fun i -> i) in
  let swap i j =
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  in
  let contribution () =
    (* B = players before p in arr *)
    let mask = ref 0 in
    (try
       Array.iter
         (fun x ->
            if x = p then raise Exit;
            mask := !mask lor (1 lsl x))
         arr
     with Exit -> ());
    Rational.sub (g.wealth (!mask lor (1 lsl p))) (g.wealth !mask)
  in
  let rec permute k =
    if k = g.n then begin
      total := Rational.add !total (contribution ());
      incr count
    end
    else
      for i = k to g.n - 1 do
        swap k i;
        permute (k + 1);
        swap k i
      done
  in
  permute 0;
  Rational.div !total (Rational.of_bigint (Bigint.factorial g.n))

let banzhaf g p =
  if p < 0 || p >= g.n then invalid_arg "Game.banzhaf: no such player";
  let full = (1 lsl g.n) - 1 in
  let others = full land lnot (1 lsl p) in
  let acc = ref Rational.zero in
  let sub = ref others in
  let continue = ref true in
  while !continue do
    let b = !sub in
    acc := Rational.add !acc (Rational.sub (g.wealth (b lor (1 lsl p))) (g.wealth b));
    if b = 0 then continue := false else sub := (b - 1) land others
  done;
  Rational.div !acc (Rational.of_bigint (Bigint.pow Bigint.two (g.n - 1)))

let is_monotone g =
  let full = (1 lsl g.n) - 1 in
  let ok = ref true in
  for mask = 0 to full do
    if !ok then
      for p = 0 to g.n - 1 do
        if mask land (1 lsl p) = 0 then begin
          let v = g.wealth mask and v' = g.wealth (mask lor (1 lsl p)) in
          if Rational.compare v v' > 0 then ok := false
        end
      done
  done;
  !ok

let is_binary g =
  let full = (1 lsl g.n) - 1 in
  let ok = ref true in
  for mask = 0 to full do
    let v = g.wealth mask in
    if not (Rational.is_zero v || Rational.equal v Rational.one) then ok := false
  done;
  !ok

let efficiency_defect g =
  let full = (1 lsl g.n) - 1 in
  let sum = Array.fold_left Rational.add Rational.zero (shapley_all g) in
  Rational.sub (Rational.sub (g.wealth full) (g.wealth 0)) sum

let of_query q db =
  let players = Array.of_list (Database.endo_list db) in
  let exo = Database.exo db in
  let v_x = if Query.eval q exo then Rational.one else Rational.zero in
  let coalition mask =
    let s = ref exo in
    Array.iteri (fun i f -> if mask land (1 lsl i) <> 0 then s := Fact.Set.add f !s) players;
    !s
  in
  (* memoize wealth: SVC brute force evaluates each coalition many times *)
  let cache : (int, Rational.t) Hashtbl.t = Hashtbl.create 1024 in
  let wealth mask =
    match Hashtbl.find_opt cache mask with
    | Some v -> v
    | None ->
      let v_s = if Query.eval q (coalition mask) then Rational.one else Rational.zero in
      let v = Rational.sub v_s v_x in
      Hashtbl.replace cache mask v;
      v
  in
  (make ~n:(Array.length players) ~wealth, players)
