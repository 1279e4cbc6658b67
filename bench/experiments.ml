(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (§6) against the pipeline-simulator oracle.
   See DESIGN.md for the per-experiment index. *)

open Facile_uarch
open Facile_core
module Sim = Facile_sim.Sim
module Baselines = Facile_baselines.Baselines
module Suite = Facile_bhive.Suite
module Genblock = Facile_bhive.Genblock
module Stats = Facile_stats
module Report = Facile_report
module Engine = Facile_engine.Engine
module Clock = Facile_obs.Clock
module Reference = Facile_reference

let eval_seed = 2023
let train_seed = 77

(* [f ()] and its wall time in seconds, on the monotonic nanosecond
   clock: one component call often takes well under the microsecond
   that [Unix.gettimeofday] resolves. *)
let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.ns_to_s (Clock.now_ns () - t0))

(* One shared worker pool for every embarrassingly-parallel per-block
   loop below.  They only [Engine.map_list], which never reads the
   memo cache; the harness caches analyzed samples itself. *)
let engine = lazy (Engine.create ())

(* Machine-readable benchmark records: one `BENCH {...}` line on stdout
   (greppable from CI logs) and the same JSON persisted to
   BENCH_<name>.json in $FACILE_BENCH_DIR (default: the working
   directory; created when missing), so benchmark results survive as
   artifacts. *)
let bench_record name fields =
  let module Json = Facile_obs.Json in
  let line = Json.to_string (Json.Obj (("name", Json.Str name) :: fields)) in
  Printf.printf "BENCH %s\n" line;
  let dir =
    match Sys.getenv_opt "FACILE_BENCH_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.current_dir_name
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
  (* write-then-rename so a crash mid-bench can never leave a torn
     BENCH_<name>.json to poison the bench-perf regression gate: the
     rename is atomic, so readers see the old record or the new one,
     never a prefix *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Cached evaluation data: per (arch, notion), the analyzed blocks and  *)
(* the oracle measurement.                                             *)

type sample = {
  case : Suite.case;
  block : Block.t;
  measured : float;
}

let corpus = lazy (Suite.corpus ~seed:eval_seed ~size:(Suite.default_size ()) ())

let data_cache : (Config.arch * [ `Unrolled | `Loop ], sample list) Hashtbl.t =
  Hashtbl.create 32

let samples cfg mode =
  let key = (cfg.Config.arch, mode) in
  match Hashtbl.find_opt data_cache key with
  | Some s -> s
  | None ->
    (* analyzing + simulating the corpus is by far the most expensive
       part of the harness and every case is independent: fan out *)
    let s =
      Engine.map_list (Lazy.force engine)
        (fun (c : Suite.case) ->
          let insts =
            match mode with `Unrolled -> c.Suite.body | `Loop -> c.Suite.loop
          in
          let block = Block.of_instructions cfg insts in
          match Sim.measure block with
          | m -> Some { case = c; block; measured = m }
          | exception Sim.Did_not_converge -> None)
        (Lazy.force corpus)
      |> List.filter_map Fun.id
    in
    Hashtbl.add data_cache key s;
    s

(* Trained models, per arch (trained on TP_U, like Ithemal). *)
let learned_cache : (Config.arch, Baselines.learned) Hashtbl.t =
  Hashtbl.create 16

let learned_model cfg =
  match Hashtbl.find_opt learned_cache cfg.Config.arch with
  | Some m -> m
  | None ->
    let train_corpus = Suite.corpus ~seed:train_seed ~size:300 () in
    let samples =
      List.filter_map
        (fun (c : Suite.case) ->
          let block = Block.of_instructions cfg c.Suite.body in
          match Sim.measure block with
          | m -> Some (block, m)
          | exception Sim.Did_not_converge -> None)
        train_corpus
    in
    let m = Baselines.train samples in
    Hashtbl.add learned_cache cfg.Config.arch m;
    m

(* ------------------------------------------------------------------ *)
(* Predictors                                                          *)

type predictor = {
  pname : string;
  notion : [ `Unrolled | `Loop ] option;
      (* the throughput notion it is designed for *)
  predict : Config.t -> Block.t -> float;
}

let facile_predictor =
  { pname = "FACILE"; notion = None;
    predict = (fun _ b -> (Model.predict b).Model.cycles) }

let predictors =
  [ facile_predictor;
    { pname = "uiCA-like"; notion = None;
      predict = (fun _ b -> Sim.uica_like b) };
    { pname = "llvm-mca-like"; notion = Some `Loop;
      predict = (fun _ b -> Baselines.llvm_mca_like b) };
    { pname = "OSACA-like"; notion = Some `Loop;
      predict = (fun _ b -> Baselines.osaca_like b) };
    { pname = "IACA-like"; notion = Some `Loop;
      predict = (fun _ b -> Baselines.iaca_like b) };
    { pname = "learned"; notion = Some `Unrolled;
      predict = (fun cfg b -> Baselines.predict_learned (learned_model cfg) b) } ]

let accuracy pairs =
  let pairs =
    List.map
      (fun (m, p) -> (Stats.Error_metrics.round2 m, Stats.Error_metrics.round2 p))
      pairs
  in
  (Stats.Error_metrics.mape pairs, Stats.Kendall.tau_b pairs)

let eval_predictor cfg mode (p : predictor) =
  let s = samples cfg mode in
  (* warm any lazily-trained state (the learned model) on the calling
     domain before fanning out *)
  (match s with x :: _ -> ignore (p.predict cfg x.block) | [] -> ());
  accuracy
    (Engine.map_list (Lazy.force engine)
       (fun x -> (x.measured, p.predict cfg x.block))
       s)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let table1 () =
  Report.Table.print ~title:"Table 1: Microarchitectures used for the evaluation"
    ~header:[ "uArch"; "Abbr."; "Released"; "CPU" ]
    (List.map
       (fun (c : Config.t) ->
         [ c.Config.name; c.Config.abbrev; string_of_int c.Config.released;
           c.Config.cpu ])
       Config.all)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

let table2 () =
  let rows = ref [] in
  List.iter
    (fun (cfg : Config.t) ->
      List.iter
        (fun p ->
          let mape_u, tau_u = eval_predictor cfg `Unrolled p in
          let mape_l, tau_l = eval_predictor cfg `Loop p in
          let mark m =
            (* parenthesize results on the notion the predictor was not
               designed for, like the gray cells in the paper *)
            match p.notion with
            | Some n when n <> m -> fun s -> "(" ^ s ^ ")"
            | _ -> fun s -> s
          in
          rows :=
            [ cfg.Config.abbrev; p.pname;
              mark `Unrolled (Report.Table.pct mape_u);
              mark `Unrolled (Report.Table.f4 tau_u);
              mark `Loop (Report.Table.pct mape_l);
              mark `Loop (Report.Table.f4 tau_l) ]
            :: !rows)
        predictors)
    Config.all;
  Report.Table.print
    ~title:
      "Table 2: Comparison of predictors on BHive_U and BHive_L \
       (vs. pipeline-simulator oracle)"
    ~header:
      [ "uArch"; "Predictor"; "MAPE(U)"; "Kendall(U)"; "MAPE(L)"; "Kendall(L)" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Table 3: component ablations                                        *)

let variant_rows =
  let open Model in
  [ "FACILE", default, `Both;
    "FACILE w/ SimplePredec", { default with simple_predec = true }, `Unrolled;
    "FACILE w/ SimpleDec", { default with simple_dec = true }, `Unrolled;
    "only Predec", { default with only = Some [ Predec ] }, `Unrolled;
    "only Dec", { default with only = Some [ Dec ] }, `Unrolled;
    "only DSB", { default with only = Some [ DSB ] }, `Loop;
    "only LSD", { default with only = Some [ LSD ] }, `Loop;
    "only Issue", { default with only = Some [ Issue ] }, `Both;
    "only Ports", { default with only = Some [ Ports ] }, `Both;
    "only Precedence", { default with only = Some [ Precedence ] }, `Both;
    "only Predec+Ports",
    { default with only = Some [ Predec; Ports ] }, `Unrolled;
    "only Precedence+Ports",
    { default with only = Some [ Precedence; Ports ] }, `Both;
    "FACILE w/o Predec", { default with without = [ Predec ] }, `Unrolled;
    "FACILE w/o Dec", { default with without = [ Dec ] }, `Unrolled;
    "FACILE w/o DSB", { default with without = [ DSB ] }, `Loop;
    "FACILE w/o LSD", { default with without = [ LSD ] }, `Loop;
    "FACILE w/o Issue", { default with without = [ Issue ] }, `Both;
    "FACILE w/o Ports", { default with without = [ Ports ] }, `Both;
    "FACILE w/o Precedence", { default with without = [ Precedence ] }, `Both ]

let table3 () =
  let archs = [ Config.RKL; Config.SKL; Config.SNB ] in
  let rows = ref [] in
  List.iter
    (fun arch ->
      let cfg = Config.by_arch arch in
      List.iter
        (fun (name, variant, applicable) ->
          let cell mode =
            let applies =
              match applicable, mode with
              | `Both, _ | `Unrolled, `Unrolled | `Loop, `Loop -> true
              | _ -> false
            in
            if not applies then ("", "")
            else begin
              let s = samples cfg mode in
              let predict b =
                (Model.predict ~variant ~notion:(mode :> Model.notion) b)
                  .Model.cycles
              in
              let mape, tau =
                accuracy
                  (Engine.map_list (Lazy.force engine)
                     (fun x -> (x.measured, predict x.block))
                     s)
              in
              (Report.Table.pct mape, Report.Table.f4 tau)
            end
          in
          let mu, tu = cell `Unrolled in
          let ml, tl = cell `Loop in
          rows := [ cfg.Config.abbrev; name; mu; tu; ml; tl ] :: !rows)
        variant_rows)
    archs;
  Report.Table.print
    ~title:"Table 3: Influence of components on the prediction accuracy"
    ~header:
      [ "uArch"; "Predictor"; "MAPE(U)"; "Kendall(U)"; "MAPE(L)"; "Kendall(L)" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Table 4: speedup when idealizing a single component                 *)

let table4 () =
  let comps =
    Model.[ Predec, "Predec"; Dec, "Dec"; Issue, "Issue"; Ports, "Ports";
            Precedence, "Precedence" ]
  in
  let rows =
    List.map
      (fun (cfg : Config.t) ->
        let s = samples cfg `Unrolled in
        let sum f =
          List.fold_left ( +. ) 0.0 (Engine.map_list (Lazy.force engine) f s)
        in
        let base =
          sum (fun x -> (Model.predict ~notion:`Unrolled x.block).Model.cycles)
        in
        cfg.Config.abbrev
        :: List.map
             (fun (c, _) ->
               let ideal =
                 sum (fun x ->
                     (Model.predict ~notion:`Unrolled
                        ~variant:{ Model.default with Model.idealized = [ c ] }
                        x.block)
                       .Model.cycles)
               in
               Printf.sprintf "%.2f" (base /. Float.max ideal 1e-9))
             comps)
      Config.all
  in
  Report.Table.print
    ~title:"Table 4: Speedup when idealizing a single component (TP_U)"
    ~header:("uArch" :: List.map snd comps)
    rows

(* ------------------------------------------------------------------ *)
(* Figure 3: heatmaps measured vs. predicted (RKL, BHive_L, < 10 cyc)  *)

let fig3 () =
  let cfg = Config.by_arch Config.RKL in
  let s = samples cfg `Loop in
  let plot name predict =
    let pairs =
      List.filter_map
        (fun x ->
          if x.measured < 10.0 then Some (x.measured, predict x.block)
          else None)
        s
    in
    Printf.printf "\nFigure 3 (%s, Rocket Lake, BHive_L):\n%s" name
      (Report.Heatmap.render ~max_value:10.0 ~bins:40 pairs)
  in
  plot "FACILE" (fun b -> (Model.predict ~notion:`Loop b).Model.cycles);
  plot "uiCA-like" Sim.uica_like

(* ------------------------------------------------------------------ *)
(* Figure 4: distribution of per-component analysis times              *)

let time_one f = snd (timed f)

let fig4 () =
  let cfg = Config.by_arch Config.SKL in
  let describe name times_us =
    [ name;
      Printf.sprintf "%.1f" (Stats.Descriptive.percentile 25.0 times_us);
      Printf.sprintf "%.1f" (Stats.Descriptive.median times_us);
      Printf.sprintf "%.1f" (Stats.Descriptive.mean times_us);
      Printf.sprintf "%.1f" (Stats.Descriptive.percentile 90.0 times_us) ]
  in
  let run mode =
    let s = samples cfg mode in
    let component name f =
      describe name
        (List.map (fun x -> 1e6 *. time_one (fun () -> f x.block)) s)
    in
    let rows =
      [ describe "overhead (decode+analyze)"
          (List.map
             (fun x -> 1e6 *. time_one (fun () ->
                  Block.of_bytes cfg x.block.Block.bytes))
             s);
        component "Predec" (fun b -> Predec.throughput ~mode b);
        component "Dec" Dec.throughput;
        component "DSB" Dsb.throughput;
        component "LSD" Lsd.throughput;
        component "Issue" Issue.throughput;
        component "Ports" Ports.throughput;
        component "Precedence (max-plus)" Precedence.throughput;
        (* the paper's algorithm: Howard on the full dependence graph *)
        component "Precedence (Howard)" Reference.Precedence_ref.throughput ]
    in
    Report.Table.print
      ~title:
        (Printf.sprintf
           "Figure 4: per-component execution times under TP_%s (microseconds)"
           (match mode with `Unrolled -> "U" | `Loop -> "L"))
      ~header:[ "component"; "p25"; "median"; "mean"; "p90" ]
      rows
  in
  run `Unrolled;
  run `Loop

(* ------------------------------------------------------------------ *)
(* Figure 5: end-to-end predictor latency comparison                   *)

let fig5 () =
  let cfg = Config.by_arch Config.SKL in
  let su = samples cfg `Unrolled and sl = samples cfg `Loop in
  let all = su @ sl in
  (* make sure the learned model is trained outside the timed region *)
  ignore (learned_model cfg);
  let run name f =
    let dt = time_one (fun () -> List.iter (fun x -> ignore (f x.block)) all) in
    (name, dt, 1e6 *. dt /. float_of_int (List.length all))
  in
  let results =
    [ run "FACILE" (fun b -> (Model.predict b).Model.cycles);
      run "pipeline sim (oracle)" Sim.measure;
      run "uiCA-like" Sim.uica_like;
      run "llvm-mca-like" Baselines.llvm_mca_like;
      run "OSACA-like" Baselines.osaca_like;
      run "IACA-like" Baselines.iaca_like;
      run "learned" (Baselines.predict_learned (learned_model cfg)) ]
  in
  let _, facile_t, _ = List.hd results in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Figure 5: efficiency on %d blocks (Skylake, BHive_U + BHive_L)"
         (List.length all))
    ~header:[ "predictor"; "total s"; "us/block"; "rel. to FACILE" ]
    (List.map
       (fun (name, dt, per) ->
         [ name; Printf.sprintf "%.3f" dt; Printf.sprintf "%.1f" per;
           Printf.sprintf "%.1fx" (dt /. facile_t) ])
       results)

(* Bechamel micro-benchmark: one Test.make per predictor on a
   representative block. *)
let microbench () =
  let open Bechamel in
  let cfg = Config.by_arch Config.SKL in
  let case = List.nth (Lazy.force corpus) 7 in
  let block = Block.of_instructions cfg case.Suite.loop in
  ignore (learned_model cfg);
  let learned = learned_model cfg in
  let mk name f = Test.make ~name (Staged.stage (fun () -> ignore (f block))) in
  let tests =
    Test.make_grouped ~name:"predictors" ~fmt:"%s %s"
      [ mk "facile" (fun b -> (Model.predict b).Model.cycles);
        mk "sim-oracle" Sim.measure;
        mk "uica-like" Sim.uica_like;
        mk "llvm-mca-like" Baselines.llvm_mca_like;
        mk "osaca-like" Baselines.osaca_like;
        mk "iaca-like" Baselines.iaca_like;
        mk "learned" (Baselines.predict_learned learned) ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg' =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg' instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    results
  in
  let results = benchmark () in
  Printf.printf "\nBechamel micro-benchmark (ns per prediction, one block):\n";
  Hashtbl.iter
    (fun _k v ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns\n" name est
          | _ -> ())
        v)
    results

(* ------------------------------------------------------------------ *)
(* Figure 6: Sankey of bottleneck evolution (TP_U)                     *)

let fig6 () =
  let chain = [ Config.SNB; Config.HSW; Config.CLX; Config.RKL ] in
  let bottleneck cfg (c : Suite.case) =
    let b = Block.of_instructions cfg c.Suite.body in
    Model.component_name (Model.bottleneck b)
  in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun (a1, a2) ->
      let c1 = Config.by_arch a1 and c2 = Config.by_arch a2 in
      let keys =
        Engine.map_list (Lazy.force engine)
          (fun case -> (bottleneck c1 case, bottleneck c2 case))
          (Lazy.force corpus)
      in
      let flows = Hashtbl.create 16 in
      List.iter
        (fun k ->
          Hashtbl.replace flows k
            (1 + Option.value ~default:0 (Hashtbl.find_opt flows k)))
        keys;
      let flow_list =
        Hashtbl.fold (fun (s, d) n acc -> (s, d, n) :: acc) flows []
      in
      Printf.printf "\nFigure 6: bottlenecks %s -> %s (TP_U)\n%s"
        c1.Config.abbrev c2.Config.abbrev
        (Report.Sankey.render ~from_label:c1.Config.abbrev
           ~to_label:c2.Config.abbrev flow_list))
    (pairs chain)

(* ------------------------------------------------------------------ *)
(* Ablations of Facile's own design choices (see DESIGN.md)            *)

let ablations () =
  let cfg = Config.by_arch Config.SKL in
  let s = samples cfg `Loop @ samples cfg `Unrolled in
  (* 1. Ports: pairwise heuristic vs exhaustive subset enumeration *)
  let fast, t_fast =
    timed (fun () -> List.map (fun x -> Ports.throughput x.block) s)
  in
  let exact, t_exact =
    timed (fun () ->
        List.map (fun x -> Reference.Ports_ref.throughput_exhaustive x.block) s)
  in
  let agree =
    List.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) fast exact
  in
  (* 2. Precedence: the max-plus matrix over the loop-carried
     resources, Howard and Lawler on the full dependence graph *)
  let maxplus, t_maxplus =
    timed (fun () -> List.map (fun x -> Precedence.throughput x.block) s)
  in
  let howard, t_howard =
    timed (fun () ->
        List.map (fun x -> Reference.Precedence_ref.throughput x.block) s)
  in
  let lawler, t_lawler =
    timed (fun () ->
        List.map (fun x -> Reference.Precedence_ref.throughput_lawler x.block) s)
  in
  let maxplus_agree =
    List.for_all2
      (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
      maxplus howard
  in
  let prec_agree =
    List.for_all2 (fun a b -> abs_float (a -. b) < 1e-5) howard lawler
  in
  (* 3. Full vs simple front-end component models: accuracy from Table 3,
     timing here *)
  let each f = time_one (fun () -> List.iter (fun x -> ignore (f x.block)) s) in
  let t_predec = each (Predec.throughput ~mode:`Unrolled) in
  let t_spredec = each Predec.simple in
  let t_dec = each Dec.throughput in
  let t_sdec = each Dec.simple in
  let us t = Printf.sprintf "%.1f" (1e6 *. t /. float_of_int (List.length s)) in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Ablations: design choices on %d blocks (Skylake); accuracy \
          impact is in Table 3"
         (List.length s))
    ~header:[ "design choice"; "us/block"; "alternative"; "us/block ";
              "same bound?" ]
    [ [ "Ports pairwise"; us t_fast; "exhaustive subsets"; us t_exact;
        string_of_bool agree ];
      [ "Precedence max-plus"; us t_maxplus; "Howard, full graph";
        us t_howard; string_of_bool maxplus_agree ^ " (bitwise)" ];
      [ "Precedence Howard"; us t_howard; "Lawler bin-search"; us t_lawler;
        string_of_bool prec_agree ];
      [ "Predec full"; us t_predec; "SimplePredec"; us t_spredec; "no" ];
      [ "Dec Algorithm 1"; us t_dec; "SimpleDec"; us t_sdec; "no" ] ]

(* ------------------------------------------------------------------ *)
(* Region extension demo (paper §7 future work)                        *)

let region () =
  let cfg = Config.by_arch Config.SKL in
  let parse s =
    match Facile_x86.Asm.parse_block s with
    | Ok l -> l
    | Error m -> failwith m
  in
  (* an if/else diamond: hot arithmetic path, cold shuffle path *)
  let hot =
    parse "imul rax, rbx\nadd rax, rcx\nadd rdx, 8\ncmp rdx, rsi\njne -20"
  in
  let cold =
    parse "pshufd xmm0, xmm1, 0x1b\npshufd xmm2, xmm0, 0x1b\nadd rdx, 8\njne -16"
  in
  let r =
    Region.analyze
      [ { Region.block = Block.of_instructions cfg hot; weight = 0.9 };
        { Region.block = Block.of_instructions cfg cold; weight = 0.1 } ]
  in
  Printf.printf
    "\nRegion analysis (90%% hot / 10%% cold):\n\
    \  naive weighted sum:     %.2f cycles\n\
    \  aggregated region bound: %.2f cycles (bottleneck: %s)\n"
    r.Region.naive r.Region.cycles
    (Model.component_name r.Region.bottleneck);
  List.iter
    (fun (c, v) ->
      Printf.printf "    %-11s %.2f\n" (Model.component_name c) v)
    r.Region.component_values

(* ------------------------------------------------------------------ *)
(* Notion gap: TP_U vs TP_L (the §3.1 motivation)                      *)

let notion () =
  let rows =
    List.map
      (fun (cfg : Config.t) ->
        let pairs =
          Engine.map_list (Lazy.force engine)
            (fun (c : Suite.case) ->
              let bu = Block.of_instructions cfg c.Suite.body in
              let bl = Block.of_instructions cfg c.Suite.loop in
              let u = (Model.predict ~notion:`Unrolled bu).Model.cycles in
              let l = (Model.predict ~notion:`Loop bl).Model.cycles in
              if u > 0.0 && l > 0.0 then Some (u, l) else None)
            (Lazy.force corpus)
          |> List.filter_map Fun.id
        in
        let ratios = List.map (fun (u, l) -> u /. l) pairs in
        let u_worse =
          List.length (List.filter (fun (u, l) -> u > l +. 1e-9) pairs)
        in
        let l_worse =
          List.length (List.filter (fun (u, l) -> l > u +. 1e-9) pairs)
        in
        [ cfg.Config.abbrev;
          Printf.sprintf "%.3f" (Stats.Descriptive.geomean ratios);
          Printf.sprintf "%d" u_worse;
          Printf.sprintf "%d" l_worse;
          string_of_int (List.length pairs) ])
      Config.all
  in
  Report.Table.print
    ~title:
      "Notion gap: unrolled (TP_U) vs. loop (TP_L) predictions per uarch \
       (geomean of TP_U/TP_L; counts of blocks where each notion is slower)"
    ~header:[ "uArch"; "geomean U/L"; "#U slower"; "#L slower"; "blocks" ]
    rows

(* ------------------------------------------------------------------ *)
(* perf: hot-path ns/block per arch, fast pipeline vs the reference    *)
(* (pre-flattening) pipeline, plus block analysis from bytes and the   *)
(* minor words both allocate, with CI regression gates against the     *)
(* committed bench/baseline_perf.json.                                 *)

exception Perf_regression of string

(* Minor-heap words [f] allocates per element of [xs].  A count, not
   a time: it repeats exactly from run to run and host to host. *)
let minor_words f xs =
  let w0 = Gc.minor_words () in
  List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  (Gc.minor_words () -. w0) /. float_of_int (List.length xs)

(* The same, after one untimed pass (arenas, flat tables and histograms
   warm). *)
let minor_words_per f xs =
  List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  minor_words f xs

(* Slack of the word-count gates over their committed counts. *)
let words_slack = 1.1

(* Minor words per request on the served path, for [codes] sent as hex
   requests on [cfg], through the calls a session makes:
   [Serve.handle_line], then [Serve.print_reply] into one reused buffer.
   A throwaway server answers every line first, so tables, arenas and
   histograms are warm; a fresh one then answers each line twice, a
   miss and then a hit.  The stages are counted on their own: the
   request parse, the hex decode, the memo cache's lookup, and the
   reply as [Serve] builds and prints it. *)
type served_words = {
  miss : float;
  hit : float;
  parse : float;
  hex : float;
  memo_miss : float;
  memo_hit : float;
  print : float;
}

(* Minor words per [Shard_cache.find_or_compute] miss and per hit, on
   the engine's key type with a constant value, so that only the cache
   allocates: a fresh cache shaped as a one-worker engine's misses
   every key once, then hits each. *)
let memo_words (cfg : Config.t) codes value =
  let module Shard_cache = Facile_engine.Shard_cache in
  let keys =
    List.map (fun code -> (cfg.Config.arch, (`Auto : Model.notion), code)) codes
  in
  let cache =
    Shard_cache.create ~shards:4 ~cap:Engine.default_cache_cap
      ~hash:Hashtbl.hash ()
  in
  let compute _ () = value in
  let lookup key = Shard_cache.find_or_compute cache key compute () in
  let miss = minor_words lookup keys in
  (miss, minor_words lookup keys)

let served_words (cfg : Config.t) codes =
  let module Json = Facile_obs.Json in
  let module Serve = Facile_engine.Serve in
  let module Hex = Facile_x86.Hex in
  let hexes = List.map Hex.encode codes in
  let lines =
    List.mapi
      (fun i h ->
        Printf.sprintf {|{"id":%d,"arch":"%s","hex":"%s"}|} i
          cfg.Config.abbrev h)
      hexes
  in
  let with_server f =
    let t =
      Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
    in
    Fun.protect ~finally:(fun () -> Serve.shutdown t) (fun () -> f t)
  in
  (* a session's reply buffer *)
  let out = Buffer.create 1024 in
  let answer t line =
    Buffer.clear out;
    Serve.print_reply out (Serve.handle_line t line)
  in
  with_server (fun t -> List.iter (fun l -> ignore (answer t l)) lines);
  let miss, hit =
    with_server (fun t ->
        let miss = minor_words (answer t) lines in
        (miss, minor_words (answer t) lines))
  in
  let replies =
    List.mapi
      (fun i code ->
        (i, Model.predict ~notion:`Auto (Block.of_bytes cfg code)))
      codes
  in
  let print (i, p) =
    Buffer.clear out;
    Serve.print_reply out
      (match Model.prediction_to_json p with
       | Json.Obj fields -> Json.Obj (("id", Json.Int i) :: fields)
       | other -> other)
  in
  let memo_miss, memo_hit = memo_words cfg codes (List.hd replies) in
  { miss; hit;
    parse = minor_words_per Json.parse lines;
    hex = minor_words_per Hex.decode hexes;
    memo_miss; memo_hit;
    print = minor_words_per print replies }

(* Words the engine's memo cache retains per entry: [Obj.reachable_words]
   of each value it keeps (instruction count and prediction) after
   predicting [codes] on [cfg], averaged. *)
let cached_words (cfg : Config.t) codes =
  Engine.with_pool ~workers:1 (fun pool ->
      List.iter
        (fun code ->
          ignore
            (Engine.predict_code pool cfg ~mode:`Auto code ~analyze:(fun () ->
                 Block.of_bytes cfg code)))
        codes;
      let entries = Engine.memo_entries pool in
      List.fold_left
        (fun acc ((_, _, insts, _), p) ->
          acc +. float_of_int (Obj.reachable_words (Obj.repr (insts, p))))
        0.0 entries
      /. float_of_int (List.length entries))

(* Wall ns per [Obs.timed] span around an empty thunk when [domains]
   domains record into one histogram at once, the fastest of [reps]
   rounds: what each always-on span costs the code it times. *)
let span_ns ~domains =
  let module Obs = Facile_obs.Obs in
  let h = Obs.Histogram.create () and n = 200_000 and reps = 5 in
  let spans () =
    for _ = 1 to n do
      Obs.timed h (fun () -> ignore (Sys.opaque_identity ()))
    done
  in
  let round () =
    let t0 = Facile_obs.Clock.now_ns () in
    let others = List.init (domains - 1) (fun _ -> Domain.spawn spans) in
    spans ();
    List.iter Domain.join others;
    float_of_int (Facile_obs.Clock.now_ns () - t0) /. float_of_int n
  in
  List.fold_left Float.min infinity (List.init reps (fun _ -> round ()))

(* Wall ns per [Clock.now_ns] read; a span takes two. *)
let clock_read_ns () =
  let n = 1_000_000 in
  let t0 = Facile_obs.Clock.now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Facile_obs.Clock.now_ns ()))
  done;
  float_of_int (Facile_obs.Clock.now_ns () - t0) /. float_of_int n

let perf () =
  let module Json = Facile_obs.Json in
  let cases = Suite.corpus ~seed:eval_seed ~size:100 () in
  let reps = 5 in
  let measure f xs =
    (* one untimed pass warms the arenas and the memo-free caches; the
       fastest of [reps] timed passes is reported, so transient
       scheduler interference cannot fake a regression *)
    List.iter (fun x -> ignore (f x)) xs;
    let best = ref infinity in
    for _ = 1 to reps do
      let dt = time_one (fun () -> List.iter (fun x -> ignore (f x)) xs) in
      if dt < !best then best := dt
    done;
    !best *. 1e9 /. float_of_int (List.length xs)
  in
  let rows =
    List.map
      (fun (cfg : Config.t) ->
        let blocks =
          List.map
            (fun (c : Suite.case) -> Block.of_instructions cfg c.Suite.loop)
            cases
        in
        let fast = measure (fun b -> Model.predict b) blocks in
        let refn = measure (fun b -> Reference.Model_ref.predict b) blocks in
        (* the same corpus re-encoded to bytes: the embedded path
           (`facile batch`, a linked compiler) analyzes from code *)
        let codes = List.map (fun (b : Block.t) -> b.Block.bytes) blocks in
        let analyze code = Block.of_bytes cfg code in
        let of_bytes_ns = measure analyze codes in
        let of_bytes_words = minor_words_per analyze codes in
        let predict_words =
          minor_words_per (fun b -> Model.predict b) (List.map analyze codes)
        in
        ( cfg, fast, refn, of_bytes_ns, of_bytes_words, predict_words,
          served_words cfg codes, cached_words cfg codes ))
      Config.all
  in
  let clock_ns = clock_read_ns () in
  let span1_ns = span_ns ~domains:1 and span2_ns = span_ns ~domains:2 in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Hot path: ns per predicted block (loop notion, %d blocks x %d reps); \
          block analysis from bytes; minor words per block"
         (List.length cases) reps)
    ~header:
      [ "uArch"; "ns/block"; "reference ns/block"; "speedup";
        "of_bytes ns/block"; "of_bytes words"; "predict words";
        "cached words" ]
    (List.map
       (fun (cfg, fast, refn, ob_ns, ob_w, pr_w, _, cached) ->
         [ cfg.Config.abbrev; Printf.sprintf "%.0f" fast;
           Printf.sprintf "%.0f" refn;
           Printf.sprintf "%.2fx" (refn /. Float.max fast 1e-9);
           Printf.sprintf "%.0f" ob_ns; Printf.sprintf "%.1f" ob_w;
           Printf.sprintf "%.1f" pr_w; Printf.sprintf "%.1f" cached ])
       rows);
  Report.Table.print
    ~title:
      "Served path: minor words per hex request (Serve.handle_line and the \
       printed reply), and per stage"
    ~header:
      [ "uArch"; "miss"; "hit"; "Json.parse"; "Hex.decode"; "memo miss";
        "memo hit"; "reply print" ]
    (List.map
       (fun (cfg, _, _, _, _, _, w, _) ->
         cfg.Config.abbrev
         :: List.map (Printf.sprintf "%.1f")
              [ w.miss; w.hit; w.parse; w.hex; w.memo_miss; w.memo_hit;
                w.print ])
       rows);
  List.iter
    (fun (cfg, fast, refn, _, _, _, _, _) ->
      Printf.printf "%s ns/block %.0f (%.2fx vs reference)\n" cfg.Config.abbrev
        fast (refn /. Float.max fast 1e-9))
    rows;
  Printf.printf
    "always-on spans (ungated): Clock.now_ns %.0f ns; one Obs.timed span \
     %.0f ns from one domain, %.0f ns from each of two into one histogram\n"
    clock_ns span1_ns span2_ns;
  bench_record "perf"
    [ "corpus", Json.Int (List.length cases);
      "reps", Json.Int reps;
      "clock_read_ns", Json.Float clock_ns;
      "span_ns_one_domain", Json.Float span1_ns;
      "span_ns_two_domains", Json.Float span2_ns;
      ( "arches",
        Json.Arr
          (List.map
             (fun (cfg, fast, refn, ob_ns, ob_w, pr_w, w, cached) ->
               Json.Obj
                 [ "arch", Json.Str cfg.Config.abbrev;
                   "ns_per_block", Json.Float fast;
                   "ref_ns_per_block", Json.Float refn;
                   "speedup", Json.Float (refn /. Float.max fast 1e-9);
                   "of_bytes_ns_per_block", Json.Float ob_ns;
                   "of_bytes_words_per_block", Json.Float ob_w;
                   "predict_words_per_block", Json.Float pr_w;
                   "served_miss_words", Json.Float w.miss;
                   "served_hit_words", Json.Float w.hit;
                   "parse_words", Json.Float w.parse;
                   "hex_decode_words", Json.Float w.hex;
                   "memo_miss_words", Json.Float w.memo_miss;
                   "memo_hit_words", Json.Float w.memo_hit;
                   "reply_print_words", Json.Float w.print;
                   "cached_words", Json.Float cached ])
             rows) ) ];
  (* Regression gates: each arch's ns/block may exceed its committed
     baseline by at most 20%, and each word count its committed count
     by at most [words_slack].  FACILE_PERF_BASELINE overrides the
     baseline path; an absent file skips the gates (fresh checkouts
     regenerate it with `main.exe perf`). *)
  let baseline_path =
    match Sys.getenv_opt "FACILE_PERF_BASELINE" with
    | Some p when p <> "" -> p
    | _ -> "bench/baseline_perf.json"
  in
  if not (Sys.file_exists baseline_path) then
    Printf.printf "perf gate skipped: no baseline at %s\n" baseline_path
  else begin
    let ic = open_in baseline_path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let baseline =
      match Json.parse text with
      | Ok j -> j
      | Error e -> raise (Perf_regression ("unreadable baseline: " ^ e))
    in
    let baseline_field field arch =
      match Json.member "arches" baseline with
      | Some (Json.Arr entries) ->
        List.find_map
          (fun e ->
            match Json.member "arch" e with
            | Some (Json.Str a) when a = arch ->
              Option.bind (Json.member field e) Json.float_opt
            | _ -> None)
          entries
      | _ -> None
    in
    let gate (cfg : Config.t) field ~unit_ ~slack v =
      match baseline_field field cfg.Config.abbrev with
      | Some base when v > base *. slack ->
        Some
          (Printf.sprintf "%s: %s %.1f > baseline %.1f x %g" cfg.Config.abbrev
             unit_ v base slack)
      | _ -> None
    in
    let failures =
      List.concat_map
        (fun (cfg, fast, _, _, ob_w, pr_w, w, cached) ->
          List.filter_map Fun.id
            [ gate cfg "ns_per_block" ~unit_:"ns/block" ~slack:1.2 fast;
              gate cfg "of_bytes_words_per_block"
                ~unit_:"Block.of_bytes words/block" ~slack:words_slack ob_w;
              gate cfg "predict_words_per_block"
                ~unit_:"Model.predict words/block" ~slack:words_slack pr_w;
              gate cfg "served_miss_words" ~unit_:"served miss words"
                ~slack:words_slack w.miss;
              gate cfg "served_hit_words" ~unit_:"served hit words"
                ~slack:words_slack w.hit;
              gate cfg "parse_words" ~unit_:"Json.parse words/request"
                ~slack:words_slack w.parse;
              gate cfg "hex_decode_words" ~unit_:"Hex.decode words/request"
                ~slack:words_slack w.hex;
              gate cfg "memo_miss_words" ~unit_:"memo miss words"
                ~slack:words_slack w.memo_miss;
              gate cfg "memo_hit_words" ~unit_:"memo hit words"
                ~slack:words_slack w.memo_hit;
              gate cfg "reply_print_words" ~unit_:"reply print words"
                ~slack:words_slack w.print;
              gate cfg "cached_words" ~unit_:"memo cache words/entry"
                ~slack:words_slack cached ])
        rows
    in
    match failures with
    | [] -> Printf.printf "perf gate passed against %s\n" baseline_path
    | fs -> raise (Perf_regression (String.concat "; " fs))
  end

(* ------------------------------------------------------------------ *)
(* Worker-scaling bench: contention behavior of the serving cache      *)

exception Scale_regression of string

(* N driver domains hammer [Engine.predict] on one shared pool
   (workers = 1, so all parallelism is the drivers' — exactly the
   shape of N TCP sessions sharing a service).  Hit-heavy: a prewarmed
   corpus, so every request is pure cache traffic and measures shard
   lock contention.  Miss-heavy: disjoint cold keys per driver, so
   every request runs the model and the cache only absorbs inserts.
   Fastest-of-[reps] wall time per driver count -> req/s, plus a
   regression gate requiring hit-heavy throughput to at least double
   from 1 to 4 drivers on machines with the cores to show it. *)
let scale () =
  let module Json = Facile_obs.Json in
  let cfg = Config.by_arch Config.SKL in
  let reps = 5 in
  let driver_counts = [ 1; 2; 4; 8 ] in
  let hit_iters = 50_000 in
  let blocks_of ~seed ~size =
    Array.of_list
      (List.map
         (fun (c : Suite.case) -> Block.of_instructions cfg c.Suite.loop)
         (Suite.corpus ~seed ~size ()))
  in
  let hit_blocks = blocks_of ~seed:eval_seed ~size:256 in
  let miss_blocks = blocks_of ~seed:train_seed ~size:4096 in
  (* run [body 0..drivers-1] concurrently, return wall seconds *)
  let drive drivers body =
    time_one (fun () ->
        let rest =
          List.init (drivers - 1) (fun i ->
              Domain.spawn (fun () -> body (i + 1)))
        in
        body 0;
        List.iter Domain.join rest)
  in
  let fastest f =
    let best = ref infinity in
    for _ = 1 to reps do
      let dt = f () in
      if dt < !best then best := dt
    done;
    !best
  in
  let hit_rps drivers =
    Engine.with_pool ~workers:1 (fun pool ->
        Array.iter
          (fun b -> ignore (Engine.predict pool ~mode:`Auto b))
          hit_blocks;
        let n = Array.length hit_blocks in
        let best =
          fastest (fun () ->
              drive drivers (fun idx ->
                  (* per-driver stride so drivers do not touch the same
                     shard in lockstep *)
                  let off = idx * 7919 in
                  for i = 0 to hit_iters - 1 do
                    ignore
                      (Engine.predict pool ~mode:`Auto
                         hit_blocks.((off + i) mod n))
                  done))
        in
        float_of_int (drivers * hit_iters) /. Float.max best 1e-9)
  in
  let miss_rps drivers =
    let per = Array.length miss_blocks / drivers in
    let best =
      (* fresh pool per rep: every key cold again *)
      fastest (fun () ->
          Engine.with_pool ~workers:1 (fun pool ->
              drive drivers (fun idx ->
                  for i = idx * per to ((idx + 1) * per) - 1 do
                    ignore (Engine.predict pool ~mode:`Auto miss_blocks.(i))
                  done)))
    in
    float_of_int (per * drivers) /. Float.max best 1e-9
  in
  (* shard-count insensitivity: the sharded cache must not change a
     single bit of any prediction vs the single-shard configuration *)
  let sample = Array.to_list (Array.sub miss_blocks 0 256) in
  let with_shards cache_shards =
    Engine.with_pool ~workers:1 ~cache_shards (fun pool ->
        Engine.predict_batch pool ~mode:`Auto sample)
  in
  let identical =
    List.for_all2
      (fun (a : Model.prediction) (b : Model.prediction) ->
        Float.equal a.Model.cycles b.Model.cycles
        && List.for_all
             (fun c -> Float.equal (Model.value a c) (Model.value b c))
             Model.all_components)
      (with_shards 1) (with_shards 16)
  in
  if not identical then
    raise (Scale_regression "predictions diverge across shard counts");
  let rows = List.map (fun d -> (d, hit_rps d, miss_rps d)) driver_counts in
  let hit1 =
    match rows with (_, h, _) :: _ -> h | [] -> assert false
  in
  let cores = Domain.recommended_domain_count () in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Serving-cache scaling: req/s by driver domains (fastest of %d, %d \
          core(s))"
         reps cores)
    ~header:[ "drivers"; "hit-heavy req/s"; "miss-heavy req/s"; "hit speedup" ]
    (List.map
       (fun (d, hit, miss) ->
         [ string_of_int d; Printf.sprintf "%.0f" hit;
           Printf.sprintf "%.0f" miss;
           Printf.sprintf "%.2fx" (hit /. Float.max hit1 1e-9) ])
       rows);
  let speedup4 =
    match List.find_opt (fun (d, _, _) -> d = 4) rows with
    | Some (_, h4, _) -> h4 /. Float.max hit1 1e-9
    | None -> 0.0
  in
  Printf.printf
    "scale parallel efficiency: 1->4 drivers %.2fx (%.0f%% of linear)\n"
    speedup4
    (speedup4 /. 4.0 *. 100.0);
  bench_record "scale"
    [ "cores", Json.Int cores;
      "reps", Json.Int reps;
      "hit_iters_per_driver", Json.Int hit_iters;
      "hit_corpus", Json.Int (Array.length hit_blocks);
      "miss_corpus", Json.Int (Array.length miss_blocks);
      "identical_across_shards", Json.Bool identical;
      "speedup_1_to_4_hit", Json.Float speedup4;
      ( "rows",
        Json.Arr
          (List.map
             (fun (d, hit, miss) ->
               Json.Obj
                 [ "drivers", Json.Int d;
                   "hit_rps", Json.Float hit;
                   "miss_rps", Json.Float miss ])
             rows) ) ];
  (* Regression gate: 4 concurrent drivers must at least double the
     1-driver hit-heavy throughput.  Meaningless without the cores to
     run 4 drivers in parallel, so it self-disables there (the CI
     bench-scale job runs on 4-vCPU runners).  FACILE_SCALE_GATE=0/1
     forces it off/on; FACILE_SCALE_MIN overrides the 2.0 factor. *)
  let gate_on =
    match Sys.getenv_opt "FACILE_SCALE_GATE" with
    | Some "0" -> false
    | Some "1" -> true
    | _ -> cores >= 4
  in
  let min_factor =
    match
      Option.bind (Sys.getenv_opt "FACILE_SCALE_MIN") float_of_string_opt
    with
    | Some f -> f
    | None -> 2.0
  in
  if not gate_on then
    Printf.printf
      "scale gate skipped: %d core(s) available, need 4 (FACILE_SCALE_GATE=1 \
       forces)\n"
      cores
  else if speedup4 < min_factor then
    raise
      (Scale_regression
         (Printf.sprintf
            "hit-heavy throughput scaled %.2fx from 1 to 4 drivers, required \
             %.2fx"
            speedup4 min_factor))
  else
    Printf.printf "scale gate passed: %.2fx >= %.2fx\n" speedup4 min_factor
