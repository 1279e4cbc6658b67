(* The per-layer metrics and the traced run's self-time table.  One
   catalog serves every workload: a layer a workload bypasses reads 0
   there.  Table rows sum to the untraced end-to-end mean. *)

(* name, unit; the order of BENCHMARK.json's per_layer list *)
let catalog =
  [ ("transport.self_us", "us"); ("serve.handle_line_us", "us");
    ("serve.self_us", "us"); ("supervise.handoff_us", "us");
    ("json.parse_us", "us"); ("json.print_us", "us");
    ("hex.decode_us", "us"); ("block.of_bytes_us", "us");
    ("engine.predict_us", "us"); ("engine.self_us", "us");
    ("engine.predict_batch_us", "us"); ("engine.pool_efficiency", "ratio");
    ("cache.hits", "count"); ("cache.misses", "count");
    ("cache.hit_share", "ratio"); ("cache.coalesced", "count");
    ("cache.evictions", "count"); ("cache.entries", "count");
    ("model.predict_us", "us"); ("model.predec_us", "us");
    ("model.dec_us", "us"); ("model.dsb_us", "us"); ("model.lsd_us", "us");
    ("model.issue_us", "us"); ("model.ports_us", "us");
    ("model.precedence_us", "us"); ("model.self_us", "us");
    ("store.load_s", "s"); ("engine.memo_seed_s", "s");
    ("errors.total", "count"); ("queue.shed", "count");
    ("supervisor.respawns", "count"); ("supervisor.inline_runs", "count");
    ("host.steal_share", "ratio"); ("host.calib_ms", "ms");
    ("client.cpu_us_per_op", "us"); ("latency_p99_us", "us");
    ("unattributed_us", "us"); ("trace.overhead_us", "us") ]

type row_kind = Measured | Derived | Subtracted | Aside

type row = { label : string; us : float; kind : row_kind }

let component_names =
  List.map (fun (n, _) -> n) Replay.components

(* [compute ~served ~e2e_us replay]: the time metrics of the catalog
   and the table rows.  On served workloads the table is

     transport.self = E - H     (E: end-to-end mean, H: handle_line)
     serve.self     = H - U     (U: untraced replay of the layer calls)
     layer rows     = span self times of the traced replay
     trace.overhead = R - U     (R: traced replay), subtracted
     unattributed   = E - every other row

   so unattributed is the replay root's uncovered time.  Embedded
   chunks have no serving layers: E itself is split into the layer
   rows, and the model's CPU inside the pool is shown aside. *)
let compute ~served ~e2e_us (r : Replay.result) =
  let g k = Option.value ~default:0. (List.assoc_opt k r.Replay.per_op_us) in
  let u = g "untraced" and overhead = g "op.total" -. g "untraced" in
  let model = g "model.predict" in
  let comps = List.map (fun n -> (n ^ "_us", g n)) component_names in
  let comp_sum = List.fold_left (fun a (_, v) -> a +. v) 0. comps in
  let model_self = if model > 0. then model -. comp_sum else 0. in
  let measured name = { label = name ^ "_us"; us = g name; kind = Measured } in
  let with_unattributed rows =
    let other = List.fold_left (fun a row -> a +. row.us) 0. rows in
    rows
    @ [ { label = "trace.overhead_us"; us = -.overhead; kind = Subtracted };
        { label = "unattributed_us"; us = e2e_us -. other +. overhead;
          kind = Measured } ]
  in
  let model_rows ~aside =
    List.map
      (fun (label, us) -> { label; us; kind = (if aside then Aside else Measured) })
      comps
    @ [ { label = "model.self_us"; us = model_self;
          kind = (if aside then Aside else Derived) } ]
  in
  let rows, values =
    if served then begin
      let h = g "handle_line" and engine = g "engine.predict" in
      let rows =
        with_unattributed
          ([ { label = "transport.self_us"; us = e2e_us -. h; kind = Derived };
             { label = "serve.self_us"; us = h -. u; kind = Derived };
             measured "json.parse"; measured "supervise.handoff";
             measured "hex.decode"; measured "block.of_bytes";
             { label = "engine.self_us"; us = engine -. model; kind = Derived } ]
           @ model_rows ~aside:false
           @ [ measured "json.print" ])
      in
      (rows, [ ("serve.handle_line_us", h); ("engine.predict_us", engine) ])
    end
    else begin
      let pb = g "engine.predict_batch" and size = float_of_int r.Replay.pool_size in
      let rows =
        with_unattributed [ measured "block.of_bytes"; measured "engine.predict_batch" ]
        @ [ { label = "engine.self_us"; us = pb -. (model /. size); kind = Aside } ]
        @ model_rows ~aside:true
      in
      ( rows,
        [ ("engine.predict_batch_us", pb);
          ("engine.pool_efficiency", if pb > 0. then model /. (pb *. size) else 0.) ] )
    end
  in
  let values =
    values
    @ [ ("model.predict_us", model) ]
    @ List.map (fun row -> (row.label, if row.kind = Subtracted then -.row.us else row.us)) rows
  in
  (rows, values)

let print_table oc ~e2e_us ~ops rows =
  Printf.fprintf oc "  %-26s %12s  %s\n" "layer (self time per op)" "us" "";
  let sum = ref 0. in
  List.iter
    (fun row ->
      let note =
        match row.kind with
        | Measured -> ""
        | Derived -> "derived"
        | Subtracted -> "subtracted: spans include it"
        | Aside -> "not summed: inside engine.predict_batch"
      in
      if row.kind <> Aside then sum := !sum +. row.us;
      (* a subtracted row shows the quantity it takes away *)
      let shown = if row.kind = Subtracted then -.row.us else row.us in
      Printf.fprintf oc "  %-26s %12.3f  %s\n" row.label shown note)
    rows;
  Printf.fprintf oc "  %-26s %12.3f  (end-to-end mean %.3f us; %d ops replayed)\n"
    "= sum of rows" !sum e2e_us ops
