(* Span recorder for the traced replay.  A span is one call into a
   layer's public function: name, operation id, parent span, start and
   end.  Spans stay in memory (unboxed arrays) until the run ends. *)

module Clock = Facile_obs.Clock

type t = {
  mutable names : string array;
  mutable name : int array;
  mutable op : int array;
  mutable parent : int array;  (* -1 for a root span *)
  mutable t0 : int array;
  mutable t1 : int array;
  mutable n : int;
}

let create () =
  let a () = Array.make 65536 0 in
  { names = [||]; name = a (); op = a (); parent = a (); t0 = a ();
    t1 = a (); n = 0 }

let count t = t.n

let name_id t s =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| s |];
      i
    end
    else if t.names.(i) = s then i
    else find (i + 1)
  in
  find 0

let grow t =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- g t.name;
  t.op <- g t.op;
  t.parent <- g t.parent;
  t.t0 <- g t.t0;
  t.t1 <- g t.t1

(* [open_ t ~name ~op ~parent] starts a span and returns its index;
   [name] is an id from {!name_id}, resolved outside the timed calls. *)
let open_ t ~name ~op ~parent =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.op.(i) <- op;
  t.parent.(i) <- parent;
  t.t0.(i) <- Clock.now_ns ();
  i

let close t i = t.t1.(i) <- Clock.now_ns ()

let span t ~name ~op ~parent f =
  let i = open_ t ~name ~op ~parent in
  let r = f () in
  close t i;
  r

(* Self time of every span: its duration minus the part its children
   cover (children of one span never overlap: the replay is
   sequential). *)
let self_ns t =
  let self = Array.init t.n (fun i -> t.t1.(i) - t.t0.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.t1.(i) - t.t0.(i))
  done;
  self

(* Total self time per span name, in ns, and total duration per name. *)
let totals t =
  let self = self_ns t in
  let k = Array.length t.names in
  let s = Array.make k 0 and d = Array.make k 0 in
  for i = 0 to t.n - 1 do
    s.(t.name.(i)) <- s.(t.name.(i)) + self.(i);
    d.(t.name.(i)) <- d.(t.name.(i)) + (t.t1.(i) - t.t0.(i))
  done;
  List.init k (fun j -> (t.names.(j), (s.(j), d.(j))))

(* One tab-separated line per span: op, name, parent index, start and
   end (ns, monotonic clock). *)
let write t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "index\top\tname\tparent\tstart_ns\tend_ns\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" i t.op.(i)
          t.names.(t.name.(i)) t.parent.(i) t.t0.(i) t.t1.(i)
      done)
