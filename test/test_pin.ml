(* Predictions pinned across commits.  Every other equivalence test
   compares two paths of the same build; this one hashes what the
   model and the analytical baselines answer on a fixed corpus, and
   compares the digest with one committed when the test was written.
   A change that moves any prediction by one ulp, on any µarch, through
   either front end, fails here.

   When a change is meant to move predictions, print the new digest
   (the failure message shows it) and commit it with the explanation,
   and bump [Model.revision] with it, so that stores written by the
   old model are refused instead of served. *)

open Facile_uarch
open Facile_core
module Baselines = Facile_baselines.Baselines
module Suite = Facile_bhive.Suite

(* Taken at the commit before the critical chain came from the
   max-plus pass, of the text below, which leaves the chains out: the
   predictions and baselines of model revision 3.  (Revision 2:
   memory-destination instructions stopped macro-fusing with a
   following Jcc, which moved 126 of the 10,800 model predictions, 38
   in cycles, all on three loops, cases 66, 82 and 98, on HSW and
   later.) *)
let pinned_digest = "6d3fe4ec4987b65587eb28c3b4526ba8"

let add_prediction buf (p : Model.prediction) =
  Printf.bprintf buf " cycles=%h fe=%s bn=%s" p.Model.cycles
    (Model.fe_path_name p.Model.fe_path)
    (String.concat "," (List.map Model.component_name (Model.bottlenecks p)));
  List.iter
    (fun c ->
      Printf.bprintf buf " %s=%h" (Model.component_name c) (Model.value p c))
    Model.all_components

let add_block buf label (b : Block.t) =
  Printf.bprintf buf "%s:" label;
  List.iter
    (fun notion ->
      Printf.bprintf buf " [%s]" (Model.notion_name notion);
      add_prediction buf (Model.predict ~notion b))
    [ `Unrolled; `Loop; `Auto ];
  Printf.bprintf buf " mca=%h osaca=%h iaca=%h\n"
    (Baselines.llvm_mca_like b) (Baselines.osaca_like b)
    (Baselines.iaca_like b)

(* Every case's body and loop, through both front ends, on every
   µarch, labelled: the 3,600 blocks both digests are taken of. *)
let corpus =
  lazy
    (let cases = Suite.corpus ~seed:2023 ~size:100 () in
     List.concat_map
       (fun (cfg : Config.t) ->
         List.concat_map
           (fun (c : Suite.case) ->
             List.concat_map
               (fun (variant, insts) ->
                 let label =
                   Printf.sprintf "%s/%d/%s" cfg.Config.abbrev c.Suite.id
                     variant
                 in
                 let b = Block.of_instructions cfg insts in
                 [ (label ^ "/insts", b);
                   (label ^ "/bytes", Block.of_bytes cfg b.Block.bytes) ])
               [ ("body", c.Suite.body); ("loop", c.Suite.loop) ])
           cases)
       Config.all)

let digest_of add =
  let buf = Buffer.create (1 lsl 20) in
  List.iter (fun (label, b) -> add buf label b) (Lazy.force corpus);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let tests =
  [ Alcotest.test_case "predictions match the pinned digest" `Quick (fun () ->
        let d = digest_of add_block in
        if d <> pinned_digest then
          Alcotest.failf "prediction digest %s <> pinned %s" d pinned_digest) ]

(* The critical chains [facile explain] prints, on the same blocks,
   pinned apart from the predictions: a change to which of several
   equally critical cycles a chain picks, or where it starts, moves
   this digest and no prediction.  Each chain must also be a witness
   for its block's bound in the reference graph.  Taken when the chain
   came to be read off the max-plus pass. *)
let pinned_chain_digest = "b70f7093618187bf43c2f0faa213ede0"

let chain_tests =
  [ Alcotest.test_case "critical chains match the pinned digest" `Quick
      (fun () ->
        let d =
          digest_of (fun buf label b ->
              Printf.bprintf buf "%s: %s\n" label
                (String.concat ";" (Precedence.critical_chain b)))
        in
        if d <> pinned_chain_digest then
          Alcotest.failf "chain digest %s <> pinned %s" d pinned_chain_digest);
    Alcotest.test_case "every pinned chain is a witness" `Quick (fun () ->
        List.iter
          (fun (label, b) ->
            let chain = Precedence.critical_chain b in
            match Test_precedence.witness_error b chain with
            | None -> ()
            | Some m ->
              Alcotest.failf "%s: %s, chain [%s]" label m
                (String.concat "; " chain))
          (Lazy.force corpus)) ]

(* The wire bytes pinned across commits: what [Serve.handle_line]
   prints for the same corpus's blocks, sent as hex requests on every
   µarch, each twice (a miss, then a hit), and for a fixed list of
   refusals and odd-but-valid lines.  Predictions are pinned above; this
   digest moves when the printer, the parser, the hex decoder or the
   reply shape does.  Every line is one a session answers, so none is
   blank.  Taken when the blank line left [refusals], at the commit
   before that change. *)
let pinned_wire_digest = "2cd0c12269fb38dbaf4a9472fb6e3c13"

let refusals =
  let good = {|{"id":1,"arch":"SKL","mode":"auto","hex":"4801d8"}|} in
  [ {|{"id":1,"hex":"not hex"}|}; {|{"id":2,"hex":"4801d"}|};
    {|{"id":3,"hex":"48 01 d8 zz"}|}; "{\"id\":4,\"hex\":\"48\\u00010\"}";
    {|{"id":5,"arch":"XYZ","hex":"4801d8"}|};
    {|{"id":6,"mode":"fast","hex":"4801d8"}|}; {|{"id":7,"hex":"0f38f0c0"}|};
    {|{"id":8}|}; {|{"id":9,"hex":4801}|}; {|{"id":10,"bogus":1}|};
    {|{"id":11,"proto":2,"hex":"90"}|}; {|{"id":12,"cmd":"reboot"}|};
    {|[1,2]|}; {|{"id":13,"asm":"bogus insn"}|};
    {|{"id":14,"asm":"imul rax, rbx"}|}; {|{"id":15,"hex":"90"} x|};
    {|{"id":"a\"b\u0001\/","hex":"90"}|}; {|{"id":"\ud83d\ude00","hex":"90"}|};
    {|{"id":1.5e3,"hex":"90"}|}; {|{"id":-0.0,"hex":"90"}|};
    {|{"id":0.1,"hex":"90"}|}; {|{"id":1e300,"hex":"90"}|};
    {|{"id":12345678901234567890,"hex":"90"}|};
    {|{"id":16,"hex":"|} ^ String.make 70_000 '9' ^ {|"}|};
    String.make 257 '[' ^ String.make 257 ']';
    String.make 258 '[' ^ String.make 258 ']' ]
  @ List.map (fun i -> String.sub good 0 i) [ 1; 5; 10; 20; 30; 43 ]

(* The request lines the wire digest answers, in order. *)
let wire_lines () =
  let cases = Suite.corpus ~seed:2023 ~size:100 () in
  let modes =
    [| ""; {|"mode":"loop",|}; {|"mode":"unroll",|}; {|"mode":"auto",|} |]
  in
  let id = ref 0 and lines = ref [] in
  List.iter
    (fun (cfg : Config.t) ->
      List.iter
        (fun (c : Suite.case) ->
          List.iter
            (fun insts ->
              let code = fst (Facile_x86.Encode.encode_block insts) in
              let hex = Facile_x86.Hex.encode code in
              for _ = 1 to 2 do
                incr id;
                lines :=
                  Printf.sprintf {|{"id":%d,"arch":"%s",%s"hex":"%s"}|} !id
                    cfg.Config.abbrev modes.(c.Suite.id mod 4) hex
                  :: !lines
              done)
            [ c.Suite.body; c.Suite.loop ])
        cases)
    Config.all;
  List.rev_append !lines refusals

let wire_text () =
  let module Serve = Facile_engine.Serve in
  let module Json = Facile_obs.Json in
  let t =
    Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
  in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun line ->
      Buffer.add_string buf
        (Json.to_string (Serve.with_proto (Serve.handle_line t line)));
      Buffer.add_char buf '\n')
    (wire_lines ());
  Buffer.contents buf

let wire_tests =
  [ Alcotest.test_case "served replies match the pinned digest" `Quick
      (fun () ->
        let d = Digest.to_hex (Digest.string (wire_text ())) in
        if d <> pinned_wire_digest then
          Alcotest.failf "wire digest %s <> pinned %s" d pinned_wire_digest) ]

(* The store format pinned across commits: [pinned.store] was written
   by `facile batch -a ARCH -m MODE --store pinned.store` for each of
   the nine µarchs and the three modes, over [pinned_blocks.txt] (the
   bodies and loops of [Suite.corpus ~seed:2023 ~size:4], then a loop
   that SKL decodes on the legacy path), by the build before
   predictions became a float array and a bottleneck mask.  Every
   record must equal a fresh prediction and encode back to the bytes
   it was read from.  A change that moves the store fingerprint
   rewrites the store with the same commands. *)
let pinned_store = "pinned.store"

let store_tests =
  let module Codec = Facile_store.Codec in
  let module Segment = Facile_store.Segment in
  let module Store = Facile_store.Store in
  [ Alcotest.test_case "a pinned store recomputes and re-encodes" `Quick
      (fun () ->
        let content =
          In_channel.with_open_bin pinned_store In_channel.input_all
        in
        (match
           Segment.decode_header (String.sub content 0 Segment.header_size)
         with
         | Ok fp when Int64.equal fp (Store.fingerprint ()) -> ()
         | Ok fp ->
           Alcotest.failf "store fingerprint %Lx is not this build's" fp
         | Error e -> Alcotest.fail (Segment.header_error_to_string e));
        let scan = Segment.scan content in
        if scan.Segment.findings <> [] then
          Alcotest.fail "the pinned store has damaged frames";
        let keys =
          List.map
            (fun ({ Segment.off; len } as f) ->
              let payload = String.sub content (Segment.payload_off f) len in
              match Codec.decode payload with
              | Error m -> Alcotest.failf "frame at %d: %s" off m
              | Ok r ->
                if Codec.encode r <> payload then
                  Alcotest.failf "frame at %d re-encodes differently" off;
                let cfg = Config.by_arch r.Codec.arch in
                let b = Block.of_bytes cfg r.Codec.bytes in
                if Block.instruction_count b <> r.Codec.insts then
                  Alcotest.failf "frame at %d: instruction count moved" off;
                if
                  not
                    (Codec.pred_equal
                       (Model.predict ~notion:r.Codec.mode b)
                       r.Codec.pred)
                then Alcotest.failf "frame at %d: prediction moved" off;
                (r.Codec.arch, r.Codec.mode))
            scan.Segment.frames
        in
        Alcotest.(check int) "records" 243 (List.length keys);
        Alcotest.(check int) "µarch and mode pairs" 27
          (List.length (List.sort_uniq compare keys))) ]

let suite =
  [ "pin.predictions", tests; "pin.chains", chain_tests; "pin.wire", wire_tests;
    "pin.store", store_tests ]
