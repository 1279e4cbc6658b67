(* Predictions pinned across commits.  Every other equivalence test
   compares two paths of the same build; this one hashes what the
   model, the analytical baselines and the critical-chain extraction
   answer on a fixed corpus, and compares the digest with one committed
   when the test was written.  A change that moves any prediction by
   one ulp, on any µarch, through either front end, fails here.

   When a change is meant to move predictions, print the new digest
   (the failure message shows it) and commit it with the explanation,
   and bump [Model.revision] with it, so that stores written by the
   old model are refused instead of served. *)

open Facile_uarch
open Facile_core
module Baselines = Facile_baselines.Baselines
module Suite = Facile_bhive.Suite

(* Model.revision 2: memory-destination instructions stopped
   macro-fusing with a following Jcc, which moved 126 of the 10,800
   model predictions (38 in cycles) and 42 of the 3,600 baseline and
   critical-chain lines, all on three loops (cases 66, 82 and 98) on
   HSW and later. *)
let pinned_digest = "713adc8ac818d146de5e93b93a6f968b"

let add_prediction buf (p : Model.prediction) =
  Printf.bprintf buf " cycles=%h fe=%s bn=%s" p.Model.cycles
    (Model.fe_path_name p.Model.fe_path)
    (String.concat "," (List.map Model.component_name p.Model.bottlenecks));
  List.iter
    (fun (c, v) -> Printf.bprintf buf " %s=%h" (Model.component_name c) v)
    p.Model.values

let add_block buf label (b : Block.t) =
  Printf.bprintf buf "%s:" label;
  List.iter
    (fun notion ->
      Printf.bprintf buf " [%s]" (Model.notion_name notion);
      add_prediction buf (Model.predict ~notion b))
    [ `Unrolled; `Loop; `Auto ];
  Printf.bprintf buf " mca=%h osaca=%h iaca=%h chain=%s\n"
    (Baselines.llvm_mca_like b) (Baselines.osaca_like b)
    (Baselines.iaca_like b)
    (String.concat ";" (Precedence.critical_chain b))

(* Every case's body and loop, through both front ends, on every
   µarch: the text the digest is taken of. *)
let corpus_text () =
  let buf = Buffer.create (1 lsl 20) in
  let cases = Suite.corpus ~seed:2023 ~size:100 () in
  List.iter
    (fun (cfg : Config.t) ->
      List.iter
        (fun (c : Suite.case) ->
          List.iter
            (fun (variant, insts) ->
              let label = Printf.sprintf "%s/%d/%s" cfg.Config.abbrev
                  c.Suite.id variant in
              let b = Block.of_instructions cfg insts in
              add_block buf (label ^ "/insts") b;
              add_block buf (label ^ "/bytes") (Block.of_bytes cfg b.Block.bytes))
            [ ("body", c.Suite.body); ("loop", c.Suite.loop) ])
        cases)
    Config.all;
  Buffer.contents buf

let tests =
  [ Alcotest.test_case "predictions match the pinned digest" `Quick (fun () ->
        let d = Digest.to_hex (Digest.string (corpus_text ())) in
        if d <> pinned_digest then
          Alcotest.failf "prediction digest %s <> pinned %s" d pinned_digest) ]

let suite = [ "pin.predictions", tests ]
