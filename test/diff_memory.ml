(* Differential suite for the memory store: seeded random operation
   sequences run on [Machine.Memory], the flat region store both
   engines use, and on [Memory_ref], the plain Hashtbl map. At every
   step the two must return the same result or raise the same
   exception, and every live store must end with the same cells. The
   addresses crowd the places where the flat store changes
   representation: the null page and negative addresses (both held in
   the overflow table), each region base and the cells just below it
   (the end of the region before), and the last cells of a region's
   array window and the first past it (overflow again). Mirrors
   diff_zint.ml: the flat store claims to be the same map, only
   faster, so any divergence is a bug in it. *)

module M = Machine.Memory
module R = Memory_ref
module W = Dart_util.Word32

type op =
  | Alloc of int * int
  | Dealloc of int * int
  | Read of int
  | Write of int * int
  | Write_init of int * int
  | Read_exn of int
  | Write_exn of int * int
  | Stack_read of int
  | Stack_write of int * int
  | Static_read of int
  | Static_write of int * int
  | Clone

let op_to_string = function
  | Alloc (a, n) -> Printf.sprintf "alloc %d %d" a n
  | Dealloc (a, n) -> Printf.sprintf "dealloc %d %d" a n
  | Read a -> Printf.sprintf "read %d" a
  | Write (a, v) -> Printf.sprintf "write %d %d" a v
  | Write_init (a, v) -> Printf.sprintf "write_init %d %d" a v
  | Read_exn a -> Printf.sprintf "read_exn %d" a
  | Write_exn (a, v) -> Printf.sprintf "write_exn %d %d" a v
  | Stack_read a -> Printf.sprintf "stack_read_exn %d" a
  | Stack_write (a, v) -> Printf.sprintf "stack_write_exn %d %d" a v
  | Static_read a -> Printf.sprintf "read_static_exn %d" a
  | Static_write (a, v) -> Printf.sprintf "write_static_exn %d %d" a v
  | Clone -> "clone"

(* ---- generators ------------------------------------------------------------ *)

let bases = [ M.globals_base; M.heap_base; M.stack_base ]

(* [edge] is [None], or [Some base] to crowd two thirds of the
   addresses onto the last cells of that region's array window and the
   first past it. A full window is 32 MB, so a sequence reaches one
   region's edge at most, and fewer sequences do. *)
let gen_addr edge =
  let open QCheck2.Gen in
  let anywhere =
    frequency
      [ (* Just below a base is the region before it (or the null page
           below [globals_base]), so ranges here cross a boundary. *)
        (8, map2 ( + ) (oneofl bases) (int_range (-3) 24));
        (* Where a region's first 64-cell array runs out. *)
        (1, map2 ( + ) (oneofl bases) (int_range 56 70));
        (2, int_range 0 (M.globals_base - 1));
        (1, int_range (-24) (-1));
        (1, oneofl [ W.min_value; W.max_value; M.heap_base - 1; M.stack_base - 1 ]) ]
  in
  match edge with
  | None -> anywhere
  | Some base ->
    frequency
      [ (1, anywhere); (2, map (( + ) base) (int_range (M.region_cap - 4) (M.region_cap + 3))) ]

let gen_size = QCheck2.Gen.(frequency [ (8, int_range 0 6); (1, int_range 7 40); (1, return (-1)) ])

let gen_value =
  QCheck2.Gen.(
    frequency
      [ (4, int_range (-5) 5); (1, oneofl [ W.min_value; W.max_value ]); (2, map W.norm int) ])

let gen_op edge =
  let open QCheck2.Gen in
  let gen_addr = gen_addr edge in
  let range f = map2 (fun a n -> f (a, n)) gen_addr gen_size in
  let store f = map2 (fun a v -> f (a, v)) gen_addr gen_value in
  let load f = map f gen_addr in
  frequency
    [ (3, range (fun (a, n) -> Alloc (a, n)));
      (2, range (fun (a, n) -> Dealloc (a, n)));
      (2, load (fun a -> Read a));
      (2, store (fun (a, v) -> Write (a, v)));
      (2, store (fun (a, v) -> Write_init (a, v)));
      (2, load (fun a -> Read_exn a));
      (2, store (fun (a, v) -> Write_exn (a, v)));
      (2, load (fun a -> Stack_read a));
      (2, store (fun (a, v) -> Stack_write (a, v)));
      (2, load (fun a -> Static_read a));
      (2, store (fun (a, v) -> Static_write (a, v)));
      (1, return Clone) ]

(* Each step names the live store it acts on, modulo how many there are. *)
let gen_steps edge = QCheck2.Gen.(list_size (int_range 1 60) (pair (int_bound 1) (gen_op edge)))

let gen_edge_steps = QCheck2.Gen.(oneofl bases >>= fun base -> gen_steps (Some base))

(* ---- running a sequence on both stores ------------------------------------- *)

(* A flat store carries the stack-region handle taken when it was made,
   as [Machine.load] caches it, so growth behind the handle is covered. *)
type pair = {
  flat : M.t;
  sreg : M.region;
  reference : R.t;
}

let make flat reference = { flat; sreg = M.stack_region flat; reference }

let result_to_string show = function
  | Ok v -> "ok " ^ show v
  | Error M.Unmapped -> "error unmapped"
  | Error M.Undefined -> "error undefined"

let observe f =
  match f () with
  | s -> s
  | exception e -> "raise " ^ Printexc.to_string e

let show_unit () = "()"

(* [apply p op] runs [op] on both stores of [p]: (flat, reference). *)
let apply p op =
  let value f () = string_of_int (f ()) in
  let both fl re = (observe fl, observe re) in
  let m = p.flat and r = p.reference in
  match op with
  | Alloc (addr, size) ->
    both (fun () -> M.alloc m ~addr ~size; "()") (fun () -> R.alloc r ~addr ~size; "()")
  | Dealloc (addr, size) ->
    both (fun () -> M.dealloc m ~addr ~size; "()") (fun () -> R.dealloc r ~addr ~size; "()")
  | Read a ->
    both
      (fun () -> result_to_string string_of_int (M.read m a))
      (fun () -> result_to_string string_of_int (R.read r a))
  | Write (a, v) ->
    both
      (fun () -> result_to_string show_unit (M.write m a v))
      (fun () -> result_to_string show_unit (R.write r a v))
  | Write_init (a, v) ->
    both (fun () -> M.write_init m a v; "()") (fun () -> R.write_init r a v; "()")
  | Read_exn a -> both (value (fun () -> M.read_exn m a)) (value (fun () -> R.read_exn r a))
  | Write_exn (a, v) ->
    both (fun () -> M.write_exn m a v; "()") (fun () -> R.write_exn r a v; "()")
  | Stack_read a ->
    both (value (fun () -> M.stack_read_exn m p.sreg a)) (value (fun () -> R.read_exn r a))
  | Stack_write (a, v) ->
    both (fun () -> M.stack_write_exn m p.sreg a v; "()") (fun () -> R.write_exn r a v; "()")
  | Static_read a ->
    both (value (fun () -> M.read_static_exn m a)) (value (fun () -> R.read_exn r a))
  | Static_write (a, v) ->
    both (fun () -> M.write_static_exn m a v; "()") (fun () -> R.write_exn r a v; "()")
  | Clone -> ("()", "()")

let alist_to_string l =
  String.concat "; "
    (List.map
       (fun (a, v) ->
         Printf.sprintf "%d=%s" a (match v with None -> "undef" | Some v -> string_of_int v))
       l)

(* At most two live stores: a clone is appended, or replaces the other
   one once two are live, so a store keeps being mutated after it was
   cloned and a clone after its source. *)
let run_steps steps =
  let stores = ref [| make (M.create ()) (R.create ()) |] in
  List.iteri
    (fun i (k, op) ->
      let live = !stores in
      let p = live.(k mod Array.length live) in
      (match op with
       | Clone ->
         let c = make (M.clone p.flat) (R.clone p.reference) in
         if Array.length live < 2 then stores := Array.append live [| c |] else live.(1 - k) <- c
       | _ -> ());
      let got, want = apply p op in
      if got <> want then
        QCheck2.Test.fail_reportf "step %d (%s) on store %d: flat store gave %s, reference %s" i
          (op_to_string op) (k mod Array.length live) got want)
    steps;
  Array.iteri
    (fun i p ->
      let got = M.to_alist p.flat and want = R.to_alist p.reference in
      if got <> want then
        QCheck2.Test.fail_reportf "store %d ends differently:\n  flat      %s\n  reference %s" i
          (alist_to_string got) (alist_to_string want))
    !stores;
  (* Free this sequence's windows before the next one grows its own. *)
  Gc.full_major ();
  true

let print_steps steps =
  String.concat "\n" (List.map (fun (k, op) -> Printf.sprintf "[%d] %s" k (op_to_string op)) steps)

let prop name ~count gen =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
    (QCheck2.Test.make ~name ~count ~print:print_steps gen run_steps)

let suite =
  [ prop "flat store agrees with the Hashtbl reference" ~count:400 (gen_steps None);
    prop "... at the array window edges" ~count:40 gen_edge_steps ]
