(* Fork/join over numbered slots: slot 0 runs in the calling domain and
   every other slot on a domain of its own, spawned by [run] and joined
   before it returns, so nothing outlives a call.  A slot's outcome is
   caught where it runs and re-raised in the caller only after every
   join; results land in their slot, so the merge is deterministic by
   construction. *)

let recommended_domains () = max 1 (Domain.recommended_domain_count ())

(* Machine-readable skip reason for wall-clock speedup gates (the bench
   JSONs).  The host check outranks the cap check: a host with fewer
   domains than the gate needs can never exhibit the speedup, whatever
   the instance sizes — and BENCH_parallel.json once recorded a "pass"
   from a 1-domain host where the numbers meant nothing. *)
let bench_gate ~required ~host ~cap =
  if host < required then Some (Printf.sprintf "host_domains=%d" host)
  else
    match cap with
    | Some n -> Some (Printf.sprintf "cap=%d" n)
    | None -> None

let run slots f =
  if slots < 0 then invalid_arg "Pool.run: slots must be >= 0";
  let attempt i () =
    match f i with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (* a slot whose domain cannot be spawned fails with the spawn's
     exception, and the domains spawned before it are still joined *)
  let joins =
    Array.init (max 0 (slots - 1)) (fun i ->
        match Domain.spawn (attempt (i + 1)) with
        | d -> fun () -> Domain.join d
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          fun () -> Error (e, bt))
  in
  (* in slot order: slot 0 first, in this domain, then every join *)
  let outcomes =
    Array.init slots (fun i -> if i = 0 then attempt 0 () else joins.(i - 1) ())
  in
  Array.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    outcomes
