(* The command-line contract, pinned from outside: the byte-exact
   stdout and exit code of every analysis command on fixed inputs, and
   the exit code and "error: " stderr prefix of every error class.  The
   binary is a declared dune dep of the test (see test_store). *)

let facile_exe = "../bin/facile.exe"

(* exit code, stdout and stderr of one run with [stdin] on its input *)
let run ?(stdin = "") args =
  let tmp ext = Filename.temp_file "facile_cli" ext in
  let inp = tmp ".in" and out = tmp ".out" and err = tmp ".err" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ inp; out; err ])
  @@ fun () ->
  Out_channel.with_open_bin inp (fun oc -> output_string oc stdin);
  let rc =
    Sys.command
      (Printf.sprintf "%s %s <%s >%s 2>%s" facile_exe args
         (Filename.quote inp) (Filename.quote out) (Filename.quote err))
  in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  (rc, read out, read err)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* [args] on [stdin] exits 0 and prints exactly [expected] *)
let pins ?stdin ?(filter = Fun.id) name args expected =
  Alcotest.test_case name `Quick (fun () ->
      let rc, out, err = run ?stdin args in
      Alcotest.(check int) (name ^ ": exit code, stderr " ^ err) 0 rc;
      Alcotest.(check string) (name ^ ": stdout") expected (filter out))

(* [args] on [stdin] exits [code] with an "error: " line on stderr
   that mentions [mentions] *)
let fails ?stdin ?(mentions = "") name args code =
  Alcotest.test_case name `Quick (fun () ->
      let rc, _, err = run ?stdin args in
      Alcotest.(check int) (name ^ ": exit code, stderr " ^ err) code rc;
      Alcotest.(check bool) (name ^ ": stderr " ^ err) true
        (starts_with ~prefix:"error: " err && contains ~sub:mentions err))

(* a Precedence-bound straight-line block, a Ports-bound loop, and a
   loop whose compare-and-branch macro-fuses *)
let chain = "add rax, rbx\nimul rcx, rax\n"
let chain_hex = "4801d8480fafc8"
let imuls = "imul rax, rbx\nimul rcx, rbx\nimul rdx, rbx\nimul rsi, rbx\nadd rdi, 1\njne -20\n"
let loop = "add rax, 8\ncmp rax, rbx\njne -10\n"
let loop_hex = "4883c0084839d875f6"

(* blank lines and comments are skipped; two lines carry a measurement *)
let corpus = "# corpus\n4801d8\n\n" ^ chain_hex ^ ",3.1\n" ^ loop_hex ^ ",1.2\n"

let chain_text =
  {|block: 2 instructions, 7 bytes, 2 fused-domain uops
uarch: Skylake (SKL), mode: unrolled (TP_U)
predicted inverse throughput: 3.00 cycles/iteration

component bounds:
  Predec        0.44
  Dec           0.50
  LSD           0.50
  DSB           1.00
  Issue         0.50
  Ports         1.00
  Precedence    3.00  <- bottleneck
|}

let chain_unroll_json =
  {|{"arch":"SKL","mode":"unroll","cycles":3.0,"bottlenecks":["Precedence"],"values":{"Predec":0.4375,"Dec":0.5,"LSD":0.5,"DSB":1.0,"Issue":0.5,"Ports":1.0,"Precedence":3.0},"fe_path":"none"}
|}

let contract_tests =
  [ pins ~stdin:chain "predict asm" "predict" chain_text;
    pins ~stdin:(chain_hex ^ "\n") "predict --hex" "predict --hex" chain_text;
    pins ~stdin:chain_hex "predict --hex --json" "predict --hex --json"
      chain_unroll_json;
    pins ~stdin:chain "predict --json -m loop" "predict --json -m loop"
      {|{"arch":"SKL","mode":"loop","cycles":3.0,"bottlenecks":["Precedence"],"values":{"Predec":1.0,"Dec":0.5,"LSD":0.5,"DSB":1.0,"Issue":0.5,"Ports":1.0,"Precedence":3.0},"fe_path":"dsb"}
|};
    pins ~stdin:chain "predict --json -m unroll" "predict --json -m unroll"
      chain_unroll_json;
    pins ~stdin:chain "predict --json -m auto" "predict --json -m auto"
      chain_unroll_json;
    pins ~stdin:loop "predict --json on a loop" "predict --json"
      {|{"arch":"SKL","mode":"loop","cycles":1.0,"bottlenecks":["DSB","Precedence"],"values":{"Predec":1.0,"Dec":1.0,"LSD":0.5,"DSB":1.0,"Issue":0.5,"Ports":0.5,"Precedence":1.0},"fe_path":"dsb"}
|};
    pins ~stdin:loop "predict -m unroll on a loop" "predict -m unroll"
      {|block: 3 instructions, 9 bytes, 2 fused-domain uops
uarch: Skylake (SKL), mode: unrolled (TP_U)
predicted inverse throughput: 1.00 cycles/iteration

component bounds:
  Predec        1.00  <- bottleneck
  Dec           1.00  <- bottleneck
  LSD           0.50
  DSB           1.00
  Issue         0.50
  Ports         0.50
  Precedence    1.00  <- bottleneck
|};
    pins ~stdin:loop "explain a loop" "explain"
      {|block: 3 instructions, 9 bytes, 2 fused-domain uops
uarch: Skylake (SKL), mode: loop (TP_L)
predicted inverse throughput: 1.00 cycles/iteration

component bounds:
  Predec        1.00
  Dec           1.00
  LSD           0.50
  DSB           1.00  <- bottleneck
  Issue         0.50
  Ports         0.50
  Precedence    1.00  <- bottleneck

critical dependency chain (instr:value:def/use):
  0:rax:def
  0:rax:use
front-end path: decoded stream buffer

counterfactual speedups (component made infinitely fast):
  DSB         1.00x
  Issue       1.00x
  Ports       1.00x
  Precedence  1.00x
|};
    pins ~stdin:imuls "explain a port-bound loop" "explain"
      {|block: 6 instructions, 22 bytes, 5 fused-domain uops
uarch: Skylake (SKL), mode: loop (TP_L)
predicted inverse throughput: 4.00 cycles/iteration

component bounds:
  Predec        2.00
  Dec           2.00
  LSD           1.25
  DSB           1.00
  Issue         1.25
  Ports         4.00  <- bottleneck
  Precedence    3.00

critical port combination: p1 (4 uops -> 4.00)
front-end path: decoded stream buffer

counterfactual speedups (component made infinitely fast):
  DSB         1.00x
  Issue       1.00x
  Ports       1.33x
  Precedence  1.00x
|};
    (* the header pads its last column to 24 characters *)
    pins ~stdin:chain_hex "sweep --hex" "sweep --hex"
      ("uArch          cycles  bottlenecks" ^ String.make 13 ' ' ^ "\n"
       ^ {|Sandy Bridge     3.00  Precedence
Ivy Bridge       3.00  Precedence
Haswell          3.00  Precedence
Broadwell        3.00  Precedence
Skylake          3.00  Precedence
Cascade Lake     3.00  Precedence
Ice Lake         3.00  Precedence
Tiger Lake       3.00  Precedence
Rocket Lake      3.00  Precedence
|});
    pins ~stdin:loop "simulate" "simulate"
      "facile: 1.00 cycles/iter; pipeline simulator: 1.00 cycles/iter (0.0% \
       difference)\n";
    pins ~stdin:loop_hex "disasm" "disasm"
      {|off    len  bytes                  instruction                              uops/lat
0      4    4883c008               add rax, 8                               1 uop, lat 1
4      3    4839d8                 cmp rax, rbx                             1 uop, lat 1, fuses with next
7      2    75f6                   jne -10                                  1 uop, lat 1
|};
    pins ~stdin:corpus "batch --json" "batch --json"
      {|{"line":2,"cycles":1.0,"bottlenecks":["Precedence"],"values":{"Predec":0.3125,"Dec":0.25,"LSD":0.25,"DSB":1.0,"Issue":0.25,"Ports":0.25,"Precedence":1.0},"fe_path":"none"}
{"line":4,"measured":3.1,"cycles":3.0,"bottlenecks":["Precedence"],"values":{"Predec":0.4375,"Dec":0.5,"LSD":0.5,"DSB":1.0,"Issue":0.5,"Ports":1.0,"Precedence":3.0},"fe_path":"none"}
{"line":5,"measured":1.2,"cycles":1.0,"bottlenecks":["DSB","Precedence"],"values":{"Predec":1.0,"Dec":1.0,"LSD":0.5,"DSB":1.0,"Issue":0.5,"Ports":0.5,"Precedence":1.0},"fe_path":"dsb"}
|};
    (* the timing summary line is the only one that varies by run *)
    pins ~stdin:corpus "batch text"
      ~filter:(fun out ->
        String.split_on_char '\n' out
        |> List.filter (fun l -> not (starts_with ~prefix:"3 blocks on " l))
        |> String.concat "\n")
      "batch"
      {|line     cycles  bottlenecks
2          1.00  Precedence
4          3.00  Precedence  (measured 3.10)
5          1.00  DSB+Precedence  (measured 1.20)
aggregate error vs. measured (2 blocks): MAPE 9.95%, Kendall tau 1.0000
|} ]

let error_tests =
  [ fails ~stdin:chain "unknown arch exits 5" "predict -a XYZ" 5;
    fails ~stdin:chain "unknown mode: predict exits 6" "predict -m spin" 6;
    fails ~stdin:"4801d8\n" "unknown mode: batch exits 6" "batch -m spin" 6;
    fails ~stdin:chain "unknown mode: sweep exits 6" "sweep -m spin" 6;
    fails ~stdin:"zz\n" "bad hex exits 3" "predict --hex" 3;
    fails ~stdin:"frobnicate rax\n" "bad asm exits 4" "predict" 4;
    fails ~stdin:"0f38f0c0" "register-form MOVBE exits 7" "predict --hex" 7;
    fails ~stdin:chain "--max-input-bytes 3 exits 8"
      "predict --max-input-bytes 3" 8;
    fails ~stdin:chain "--deadline-ms 0 exits 9" "predict --deadline-ms 0" 9;
    fails ~stdin:"4801d8\n" "--workers 0 exits 1" "batch --workers 0" 1 ]

(* weighted sections of one region: the bench's if/else diamond *)
let diamond =
  "== 0.9\nimul rax, rbx\nadd rax, rcx\nadd rdx, 8\ncmp rdx, rsi\njne -20\n\
   == 0.1\npshufd xmm0, xmm1, 0x1b\npshufd xmm2, xmm0, 0x1b\nadd rdx, 8\n\
   jne -16\n"

let region_tests =
  pins ~stdin:diamond "region" "region"
    {|region of 2 blocks on Skylake:
  naive weighted sum:      3.80 cycles
  aggregated region bound: 3.70 cycles
  bottleneck:              Precedence
    Predec      1.00
    Issue       0.98
    Ports       0.98
    Precedence  3.70
|}
  :: List.map
       (fun w ->
         fails
           ~stdin:("add rax, rbx\n== 1\nadd rax, rbx\n== " ^ w ^ "\nnop\n")
           ~mentions:"line 4" ("weight " ^ w ^ " exits 4") "region" 4)
       [ "abc"; "nan"; "inf"; "-1"; "0" ]
  @ [ fails ~stdin:"== 1\nvfmadd231ps ymm0, ymm1, ymm2\n"
        "an FMA section on SNB exits 7" "region -a SNB" 7 ]

(* retired options are gone: cmdliner refuses an unknown option with
   124 before the command runs *)
let option_tests =
  List.map
    (fun (args, stdin) ->
      Alcotest.test_case (args ^ " is an unknown option") `Quick (fun () ->
          let rc, _, err = run ~stdin args in
          Alcotest.(check int) (args ^ ": stderr " ^ err) 124 rc))
    [ ("batch -j 2", "4801d8\n"); ("serve --jobs 2", "");
      ("serve --queue 8", ""); ("serve --cache-shards 4", "");
      ("batch --cache-shards 4", "4801d8\n") ]

(* A client that pipelines its whole input is answered in full: the
   requests arrive in one read, and every one gets its reply, in
   order. *)
let serve_tests =
  [ Alcotest.test_case "serve answers every line of one read" `Quick
      (fun () ->
        let n = 1000 in
        let stdin =
          String.concat ""
            (List.init n (fun i ->
                 Printf.sprintf "{\"id\":%d,\"hex\":\"4801d8\"}\n" i))
        in
        let rc, out, err = run ~stdin "serve" in
        Alcotest.(check int) ("exit code, stderr " ^ err) 0 rc;
        let replies =
          List.filter (( <> ) "") (String.split_on_char '\n' out)
          |> List.map (fun l ->
                 match Facile_obs.Json.parse l with
                 | Ok j -> j
                 | Error m -> Alcotest.failf "bad reply %S: %s" l m)
        in
        let member k j = Facile_obs.Json.member k j in
        Alcotest.(check (list (option int))) "one reply per request, in order"
          (List.init n Option.some)
          (List.map
             (fun j -> Option.bind (member "id" j) Facile_obs.Json.int_opt)
             replies);
        Alcotest.(check int) "no error replies" 0
          (List.length (List.filter (fun j -> member "error" j <> None) replies)));
    (* `... | facile serve | head -n 1`: the reader leaves after the
       first reply, so a later write finds the pipe closed.  That ends
       the service cleanly: exit 0, the dead reader counted once. *)
    Alcotest.test_case "serve exits 0 when its reader leaves" `Quick
      (fun () ->
        let tmp ext = Filename.temp_file "facile_cli" ext in
        let inp = tmp ".in" and err = tmp ".err" in
        Fun.protect ~finally:(fun () -> List.iter Sys.remove [ inp; err ])
        @@ fun () ->
        Out_channel.with_open_bin inp (fun oc ->
            for _ = 1 to 200_000 do
              output_string oc "{\"id\":1,\"hex\":\"90\"}\n"
            done);
        let in_fd = Unix.openfile inp [ Unix.O_RDONLY ] 0 in
        let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
        let out_r, out_w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process facile_exe [| facile_exe; "serve" |] in_fd out_w
            err_fd
        in
        List.iter Unix.close [ in_fd; err_fd; out_w ];
        let reader = Unix.in_channel_of_descr out_r in
        let first = input_line reader in
        close_in reader;
        let _, status = Unix.waitpid [] pid in
        Alcotest.(check bool) ("first reply " ^ first) true
          (contains ~sub:{|"cycles"|} first);
        let stderr_text = In_channel.with_open_bin err In_channel.input_all in
        Alcotest.(check bool) ("exit 0, stderr " ^ stderr_text) true
          (status = Unix.WEXITED 0);
        let epipe =
          List.find_map
            (fun l ->
              match Facile_obs.Json.parse l with
              | Ok j ->
                Option.bind (Facile_obs.Json.member "final_stats" j) (fun s ->
                    Option.bind (Facile_obs.Json.member "io" s) (fun io ->
                        Option.bind (Facile_obs.Json.member "epipe" io)
                          Facile_obs.Json.int_opt))
              | Error _ -> None)
            (String.split_on_char '\n' stderr_text)
        in
        Alcotest.(check (option int)) "final_stats io.epipe" (Some 1) epipe)
  ]

let suite =
  [ "cli.contract", contract_tests;
    "cli.exit", error_tests;
    "cli.region", region_tests;
    "cli.options", option_tests;
    "cli.serve", serve_tests ]
