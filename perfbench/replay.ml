(* The traced replay.  Each workload's timed operations are replayed
   in-process through the public function of every layer on their
   path, one span per call, and the same calls are replayed untraced;
   the difference is the tracing overhead.  Spans are recorded from
   the benchmark's side of each call, so a layer's inside is opaque:
   where one call contains another layer's work (the model inside
   [Engine.predict]), that layer is timed by calling it directly too,
   and the container's own share is derived by subtraction. *)

open Facile_core
module Engine = Facile_engine.Engine
module Serve = Facile_engine.Serve
module Supervise = Facile_engine.Supervise
module Json = Facile_obs.Json
module Clock = Facile_obs.Clock

(* `facile serve` with every flag at its default. *)
let child_config =
  { Serve.default_config with
    Serve.cache_cap = Some Engine.default_cache_cap;
    deadline_ms = Some 2000 }

let components =
  [ ("model.predec", fun mode b -> Predec.throughput ~mode b);
    ("model.dec", fun _ b -> Dec.throughput b);
    ("model.dsb", fun _ b -> Dsb.throughput b);
    ("model.lsd", fun _ b -> Lsd.throughput b);
    ("model.issue", fun _ b -> Issue.throughput b);
    ("model.ports", fun _ b -> Ports.throughput b);
    ("model.precedence", fun _ b -> Precedence.throughput b) ]

type result = {
  ops : int;                       (** operations replayed *)
  per_op_us : (string * float) list;
      (** mean per operation: self time of every span name (["op"] is
          the root's uncovered remainder), plus ["<name>.total"] for
          span durations, ["handle_line"] and ["untraced"] *)
  spans : Spans.t;
  pool_size : int;
}

let us_per_op ~ops ns = float_of_int ns /. 1e3 /. float_of_int ops

let finish tr ~ops ~extra ~pool_size =
  let totals = Spans.totals tr in
  let per_op_us =
    List.concat_map
      (fun (name, (self, dur)) ->
        [ (name, us_per_op ~ops self); (name ^ ".total", us_per_op ~ops dur) ])
      totals
    @ List.map (fun (k, ns) -> (k, us_per_op ~ops ns)) extra
  in
  { ops; per_op_us; spans = tr; pool_size }

(* The model, component by component, on one block: each component's
   [throughput], as Figure 4 of the paper times it, plus the whole
   [Model.predict] for the combine step's share. *)
let model_pass tr ~op =
  let whole = Spans.name_id tr "model.predict" in
  let comps = List.map (fun (n, f) -> (Spans.name_id tr n, f)) components in
  fun b ->
    let mode = if Block.ends_in_branch b then `Loop else `Unrolled in
    ignore (Spans.span tr ~name:whole ~op ~parent:(-1) (fun () -> Model.predict b));
    List.iter
      (fun (name, f) ->
        ignore (Spans.span tr ~name ~op ~parent:(-1) (fun () -> f mode b)))
      comps

let time_into acc f =
  let t0 = Clock.now_ns () in
  let r = f () in
  acc := !acc + (Clock.now_ns () - t0);
  r

(* Served operations: [lines] as sent (without the newline), the key
   of each, the memo entries the child was warmed with, and whether
   the real path runs the model (a miss). *)
let serve ~lines ~(keys : Workload.key array) ~seed ~misses =
  let ops = Array.length lines in
  let warm e = Option.iter (Engine.memo_seed e) seed in
  let srv = Serve.of_config child_config in
  warm (Serve.engine srv);
  (* [Engine.predict] runs on the caller, so the replay's own engines
     need no worker domains (each would join every stop-the-world
     collection); they keep the child's shard count *)
  let engine () =
    Engine.create ~workers:1
      ~cache_shards:(Engine.cache_shard_count (Serve.engine srv)) ()
  in
  let eng_t = engine () and eng_u = engine () in
  warm eng_t;
  warm eng_u;
  let sup = Supervise.create () in
  let tr = Spans.create () in
  let id = Spans.name_id tr in
  let n_op = id "op" and n_parse = id "json.parse"
  and n_handoff = id "supervise.handoff" and n_hex = id "hex.decode"
  and n_block = id "block.of_bytes" and n_engine = id "engine.predict"
  and n_print = id "json.print" in
  let h_ns = ref 0 and u_ns = ref 0 in
  let hexes = Array.map Workload.hex keys in
  let decode hex =
    match Facile_x86.Hex.decode hex with
    | Ok b -> b
    | Error _ -> failwith "replay: the benchmark sent invalid hex"
  in
  (* the serving core's whole per-line work: what a session's line
     callback runs between framing and the socket write *)
  let handle i =
    time_into h_ns (fun () ->
        ignore (Json.to_string (Serve.with_proto (Serve.handle_line srv lines.(i)))))
  in
  let layers_traced i =
    let k = keys.(i) in
    let root = Spans.open_ tr ~name:n_op ~op:i ~parent:(-1) in
    let sp name f = Spans.span tr ~name ~op:i ~parent:root f in
    ignore (sp n_parse (fun () -> Json.parse lines.(i)));
    ignore (sp n_handoff (fun () -> Supervise.run sup ignore));
    let bytes = sp n_hex (fun () -> decode hexes.(i)) in
    let b = sp n_block (fun () -> Block.of_bytes k.Workload.cfg bytes) in
    let p = sp n_engine (fun () -> Engine.predict eng_t ~mode:`Auto b) in
    ignore (sp n_print (fun () -> Json.to_string (Model.prediction_to_json p)));
    Spans.close tr root;
    b
  in
  let layers_untraced i =
    let k = keys.(i) in
    time_into u_ns (fun () ->
        ignore (Json.parse lines.(i));
        ignore (Supervise.run sup ignore);
        let b = Block.of_bytes k.Workload.cfg (decode hexes.(i)) in
        let p = Engine.predict eng_u ~mode:`Auto b in
        ignore (Json.to_string (Model.prediction_to_json p)))
  in
  let model = model_pass tr in
  Fun.protect
    ~finally:(fun () ->
      Serve.shutdown srv;
      Engine.shutdown eng_t;
      Engine.shutdown eng_u;
      Supervise.shutdown sup)
    (fun () ->
      (* the traced and untraced replays alternate which runs first,
         and each follows the serving core's call equally often *)
      let blocks =
        Array.init ops (fun i ->
            handle i;
            if i mod 2 = 0 then (let b = layers_traced i in layers_untraced i; b)
            else (layers_untraced i; layers_traced i))
      in
      if misses then Array.iteri (fun i b -> model ~op:i b) blocks;
      finish tr ~ops ~extra:[ ("handle_line", !h_ns); ("untraced", !u_ns) ]
        ~pool_size:0)

(* Embedded operations: each a chunk of blocks of one µarch. *)
let batch ~(chunks : Workload.key array array) =
  let ops = Array.length chunks in
  let eng_t = Engine.create () and eng_u = Engine.create () in
  let tr = Spans.create () in
  let n_op = Spans.name_id tr "op" and n_block = Spans.name_id tr "block.of_bytes"
  and n_batch = Spans.name_id tr "engine.predict_batch" in
  let u_ns = ref 0 in
  let traced c =
    let root = Spans.open_ tr ~name:n_op ~op:c ~parent:(-1) in
    let blocks =
      Array.to_list
        (Array.map
           (fun (k : Workload.key) ->
             Spans.span tr ~name:n_block ~op:c ~parent:root (fun () ->
                 Block.of_bytes k.Workload.cfg k.Workload.bytes))
           chunks.(c))
    in
    ignore
      (Spans.span tr ~name:n_batch ~op:c ~parent:root (fun () ->
           Engine.predict_batch eng_t ~mode:`Auto blocks));
    Spans.close tr root;
    blocks
  in
  let untraced c =
    time_into u_ns (fun () ->
        ignore (Engine.predict_batch eng_u ~mode:`Auto (Embedded.blocks_of chunks.(c))))
  in
  let model = model_pass tr in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown eng_t; Engine.shutdown eng_u)
    (fun () ->
      (* the model pass runs after the layer replays: interleaved, its
         work would leave them on colder caches than the timed phase *)
      let blocks =
        Array.init ops (fun c ->
            if c mod 2 = 0 then (untraced c; traced c)
            else let bs = traced c in untraced c; bs)
      in
      Array.iteri (fun c bs -> List.iter (model ~op:c) bs) blocks;
      finish tr ~ops ~extra:[ ("untraced", !u_ns) ] ~pool_size:(Engine.size eng_t))
