(* Deterministic fault injection.

   Faults are injected at named *points* in the request pipeline
   ("decode", "predict", "respond"): [point p] consults the injection
   table and raises [Injected p] when the seeded PRNG fires.  With no
   spec configured, [point] is one atomic load.

   The spec grammar (env var FACILE_FAULT or [configure]) is

     point:rate:seed[:limit][,point:rate:seed[:limit]...]

   e.g. "predict:0.05:42" injects at the predict point with
   probability 0.05 from a splitmix64 stream seeded with 42, and
   "predict:1:7:1" injects exactly once (limit 1) then never again.
   Every injection increments a per-point counter, snapshotted by
   [snapshot] so the serving layer can report each injected fault. *)

module Sync = Facile_core.Sync

exception Injected of string

type rule = {
  rate : float;               (* injection probability per hit *)
  mutable prng : int64;       (* splitmix64 state, mutated per hit *)
  limit : int;                (* max injections; -1 = unlimited *)
  mutable injected : int;     (* faults actually raised *)
  mutable hits : int;         (* times the point was consulted *)
}

(* rules keyed by point name; a mutex serializes PRNG stepping so the
   stream is deterministic even if two domains ever share a point *)
let mu = Mutex.create ()
let rules : (string, rule) Hashtbl.t = Hashtbl.create 8
let armed = Atomic.make false (* fast-path gate: any rules configured? *)

let clear () =
  Sync.with_lock mu (fun () ->
      Hashtbl.reset rules;
      Atomic.set armed false)

(* splitmix64: tiny, seedable, good enough for Bernoulli draws *)
let splitmix64 state =
  let z = Int64.add state 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  (z, Int64.logxor z (Int64.shift_right_logical z 31))

let uniform rule =
  let state, out = splitmix64 rule.prng in
  rule.prng <- state;
  (* 53 high bits -> [0,1) *)
  Int64.to_float (Int64.shift_right_logical out 11) /. 9007199254740992.0

let parse_spec spec =
  let parse_one s =
    match String.split_on_char ':' (String.trim s) with
    | point :: rate :: seed :: rest when point <> "" ->
      let rate =
        match float_of_string_opt rate with
        | Some r when r >= 0.0 && r <= 1.0 -> r
        | _ -> invalid_arg (Printf.sprintf "FACILE_FAULT: bad rate %S" rate)
      in
      let seed =
        match Int64.of_string_opt seed with
        | Some s -> s
        | None -> invalid_arg (Printf.sprintf "FACILE_FAULT: bad seed %S" seed)
      in
      let limit =
        match rest with
        | [] -> -1
        | [ l ] ->
          (match int_of_string_opt l with
           | Some n when n >= 0 -> n
           | _ -> invalid_arg (Printf.sprintf "FACILE_FAULT: bad limit %S" l))
        | _ -> invalid_arg ("FACILE_FAULT: too many fields in " ^ s)
      in
      (point, { rate; prng = seed; limit; injected = 0; hits = 0 })
    | _ ->
      invalid_arg
        ("FACILE_FAULT: expected point:rate:seed[:limit], got " ^ s)
  in
  String.split_on_char ',' spec
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map parse_one

let configure spec =
  let parsed = parse_spec spec in
  Sync.with_lock mu (fun () ->
      Hashtbl.reset rules;
      List.iter (fun (p, r) -> Hashtbl.replace rules p r) parsed;
      Atomic.set armed (parsed <> []))

let configure_from_env () =
  match Sys.getenv_opt "FACILE_FAULT" with
  | None | Some "" -> ()
  | Some spec -> configure spec

(* ----- the hook ----- *)

let inject p =
  let fire =
    Sync.with_lock mu (fun () ->
        match Hashtbl.find_opt rules p with
        | None -> false
        | Some r ->
          r.hits <- r.hits + 1;
          if r.limit >= 0 && r.injected >= r.limit then false
          else begin
            let fire = r.rate >= 1.0 || uniform r < r.rate in
            if fire then r.injected <- r.injected + 1;
            fire
          end)
  in
  if fire then raise (Injected p)

let point p = if Atomic.get armed then inject p

(* Non-raising draw for data-corrupting fault points (store I/O short
   writes, bit flips): when the rule fires the injection is counted
   and a PRNG payload is handed to the caller, who derives the
   corruption (bit position, truncated length) from it so the damage
   is as deterministic as the firing schedule. *)
let draw p =
  if not (Atomic.get armed) then None
  else
    Sync.with_lock mu (fun () ->
        match Hashtbl.find_opt rules p with
        | None -> None
        | Some r ->
          r.hits <- r.hits + 1;
          if r.limit >= 0 && r.injected >= r.limit then None
          else begin
            let fire = r.rate >= 1.0 || uniform r < r.rate in
            if fire then begin
              r.injected <- r.injected + 1;
              let state, out = splitmix64 r.prng in
              r.prng <- state;
              (* land with the native max_int: Int64.max_int keeps 63
                 bits, whose top bit is the sign of OCaml's 63-bit int —
                 the contract promises a non-negative payload *)
              Some (Int64.to_int out land max_int)
            end
            else None
          end)

let snapshot () =
  Sync.with_lock mu (fun () ->
      Hashtbl.fold (fun p r acc -> (p, (r.injected, r.hits)) :: acc) rules []
      |> List.sort compare)
