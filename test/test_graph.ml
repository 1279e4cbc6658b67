open Facile_reference

let mk n edges =
  let g = Digraph.create ~n in
  List.iter
    (fun (src, dst, weight, count) ->
      Digraph.add_edge g ~src ~dst ~weight ~count)
    edges;
  g

let check_ratio name g expected =
  Alcotest.test_case name `Quick (fun () ->
      (match Cycle_ratio.howard g with
       | Some r ->
         Alcotest.(check (float 1e-6)) (name ^ " (howard)") expected r
       | None -> Alcotest.failf "%s: howard found no cycle" name);
      match Cycle_ratio.lawler g with
      | Some r -> Alcotest.(check (float 1e-6)) (name ^ " (lawler)") expected r
      | None -> Alcotest.failf "%s: lawler found no cycle" name)

let known_tests =
  [ check_ratio "self loop" (mk 1 [ (0, 0, 3.0, 1) ]) 3.0;
    check_ratio "two-node cycle"
      (mk 2 [ (0, 1, 2.0, 0); (1, 0, 4.0, 1) ])
      6.0;
    check_ratio "two cycles, pick max"
      (mk 4
         [ (0, 1, 2.0, 0); (1, 0, 0.0, 1);  (* ratio 2 *)
           (2, 3, 5.0, 0); (3, 2, 5.0, 2) ])
      (* ratio 5 *)
      5.0;
    check_ratio "cycle spanning two iterations"
      (mk 2 [ (0, 1, 10.0, 1); (1, 0, 0.0, 1) ])
      5.0;
    check_ratio "long chain"
      (mk 5
         [ (0, 1, 1.0, 0); (1, 2, 1.0, 0); (2, 3, 1.0, 0); (3, 4, 1.0, 0);
           (4, 0, 1.0, 1) ])
      5.0;
    Alcotest.test_case "acyclic" `Quick (fun () ->
        let g = mk 3 [ (0, 1, 5.0, 0); (1, 2, 7.0, 1) ] in
        assert (Cycle_ratio.howard g = None);
        assert (Cycle_ratio.lawler g = None));
    Alcotest.test_case "empty graph" `Quick (fun () ->
        assert (Cycle_ratio.howard (mk 0 []) = None));
    Alcotest.test_case "critical cycle extraction" `Quick (fun () ->
        let g =
          mk 4
            [ (0, 1, 2.0, 0); (1, 0, 0.0, 1);
              (2, 3, 9.0, 0); (3, 2, 0.0, 1) ]
        in
        match Cycle_ratio.howard g with
        | Some r ->
          Alcotest.(check (float 1e-6)) "max ratio" 9.0 r;
          (match Cycle_ratio.critical_cycle g r with
           | Some edges ->
             let total_w =
               List.fold_left (fun a e -> a +. e.Digraph.weight) 0.0 edges
             in
             let total_t =
               List.fold_left (fun a e -> a + e.Digraph.count) 0 edges
             in
             Alcotest.(check (float 1e-3)) "cycle ratio"
               9.0 (total_w /. float_of_int total_t)
           | None -> Alcotest.fail "no critical cycle found")
        | None -> Alcotest.fail "no cycle found") ]

(* Property: Howard and Lawler agree on random graphs whose cycles all
   have positive iteration count (guaranteed here by giving every edge
   count >= 1). *)
let agreement =
  QCheck.Test.make ~name:"howard = lawler on random graphs" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_range 0 20)
           (quad (int_range 0 7) (int_range 0 7) (int_range 0 20)
              (int_range 1 3))))
    (fun (n, edges) ->
      let g = Digraph.create ~n in
      List.iter
        (fun (s, d, w, t) ->
          (* clamp: QCheck shrinking can escape int_range bounds *)
          let t = max 1 (min 3 t) in
          if s < n && d < n then
            Digraph.add_edge g ~src:s ~dst:d ~weight:(float_of_int w) ~count:t)
        edges;
      match Cycle_ratio.howard g, Cycle_ratio.lawler g with
      | None, None -> true
      | Some a, Some b -> abs_float (a -. b) < 1e-5
      | Some a, None -> QCheck.Test.fail_reportf "howard %f, lawler none" a
      | None, Some b -> QCheck.Test.fail_reportf "howard none, lawler %f" b)

(* Property: adding an edge never decreases the maximum cycle ratio. *)
let monotone =
  QCheck.Test.make ~name:"adding edges is monotone" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 15)
           (quad (int_range 0 5) (int_range 0 5) (int_range 0 10)
              (int_range 1 2)))
        (quad (int_range 0 5) (int_range 0 5) (int_range 0 10) (int_range 1 2)))
    (fun (edges, extra) ->
      let build es =
        let g = Digraph.create ~n:6 in
        List.iter
          (fun (s, d, w, t) ->
            let t = max 1 (min 2 t) in
            Digraph.add_edge g ~src:s ~dst:d ~weight:(float_of_int w) ~count:t)
          es;
        g
      in
      let before = Cycle_ratio.howard (build edges) in
      let after = Cycle_ratio.howard (build (extra :: edges)) in
      match before, after with
      | None, _ -> true
      | Some _, None -> false
      | Some a, Some b -> b >= a -. 1e-9)

(* Karp's maximum cycle mean on the max-plus matrix of a graph whose
   edges all count one (parallel edges keep the heaviest) must equal
   Howard's ratio on the graph itself bit for bit: the Precedence fast
   path depends on exactly this. *)
let karp_agreement =
  QCheck.Test.make ~name:"karp is bit-identical to howard" ~count:500
    QCheck.(
      pair (int_range 0 8)
        (list_of_size Gen.(int_range 0 25)
           (triple (int_range 0 7) (int_range 0 7) (int_range 0 20))))
    (fun (n, edges) ->
      (* clamp: QCheck shrinking can escape int_range bounds *)
      let n = max 0 (min 8 n) in
      let edges =
        List.filter_map
          (fun (s, d, w) ->
            if s >= 0 && s < n && d >= 0 && d < n then Some (s, d, max 0 w)
            else None)
          edges
      in
      let g = Digraph.create ~n in
      let a = Array.make (n * ((2 * n) + 1)) (-1) in
      List.iter
        (fun (s, d, w) ->
          Digraph.add_edge g ~src:s ~dst:d ~weight:(float_of_int w) ~count:1;
          a.((s * n) + d) <- max w a.((s * n) + d))
        edges;
      let karp =
        match Facile_core.Karp.max_cycle_mean ~n a with
        | 0 -> None
        | den -> Some (float_of_int a.(n * n) /. float_of_int den)
      in
      match Cycle_ratio.howard g, karp with
      | None, None -> true
      | Some h, Some k when Int64.bits_of_float h = Int64.bits_of_float k ->
        true
      | h, k ->
        let show = function None -> "none" | Some r -> Printf.sprintf "%h" r in
        QCheck.Test.fail_reportf "howard %s, karp %s" (show h) (show k))

let suite =
  [ "graph.known", known_tests;
    "graph.properties",
    List.map QCheck_alcotest.to_alcotest
      [ agreement; monotone; karp_agreement ] ]
