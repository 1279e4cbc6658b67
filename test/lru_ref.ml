(* The bounded LRU map the engine's memo cache was built on, before
   each cache shard became one intrusive table: a hashtable over a
   doubly-linked recency list.  [find] promotes to most-recent; [add]
   beyond the capacity evicts the least-recent entry and counts it.
   Kept as a reference: the equivalence qchecks in test_shard_cache.ml
   require a one-shard cache to answer, evict and order exactly as
   this does, on every trace. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards most-recent *)
  mutable next : ('k, 'v) node option; (* towards least-recent *)
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most-recent *)
  mutable tail : ('k, 'v) node option; (* least-recent *)
  mutable evictions : int;
}

let create cap =
  if cap < 1 then invalid_arg (Printf.sprintf "Lru_ref.create: cap = %d" cap);
  { cap; tbl = Hashtbl.create (min cap 1024); head = None; tail = None;
    evictions = 0 }

let length t = Hashtbl.length t.tbl
let evictions t = t.evictions

let unlink t n =
  (match n.prev with
   | Some p -> p.next <- n.next
   | None -> t.head <- n.next);
  (match n.next with
   | Some s -> s.prev <- n.prev
   | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let is_head t n = match t.head with Some h -> h == n | None -> false

let promote t n =
  if not (is_head t n) then begin
    unlink t n;
    push_front t n
  end

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
    promote t n;
    Some n.value

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
    n.value <- v;
    promote t n
  | None ->
    if Hashtbl.length t.tbl >= t.cap then begin
      match t.tail with
      | None -> assert false (* cap >= 1 and the table is non-empty *)
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.key;
        t.evictions <- t.evictions + 1
    end;
    let n = { key = k; value = v; prev = None; next = None } in
    push_front t n;
    Hashtbl.replace t.tbl k n

let to_list t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.key, n.value) :: acc) n.next
  in
  go [] t.head
