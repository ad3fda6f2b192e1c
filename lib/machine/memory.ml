type cell =
  | Undef
  | Val of int

type read_error =
  | Unmapped
  | Undefined

exception Unmapped_exn
exception Undefined_exn
exception Null_exn

(* Address-space layout, shared with [Machine.layout]: the store
   decodes an address to its region with two compares, so the bases
   live here and the machine re-exports them. *)
let globals_base = 0x1000
let heap_base = 0x2000_0000
let stack_base = 0x4000_0000

(* ---- flat regions ----------------------------------------------------------
   Each region is one growable int array indexed by [addr - base], each
   element encoding state and value together: [0] unmapped, [1]
   allocated-but-undefined, and a defined cell holding [v] as
   [(v lsl 2) lor 2] — values are 32-bit words, so the shift cannot
   overflow a native int. One array element per access (a single cache
   line touch), no hashing, no allocation. Cells a program somehow
   reaches outside any region's array window (negative addresses,
   offsets past [region_cap]) spill into [overflow]; the array wins
   whenever its element is non-zero, and the overflow is only consulted
   on zero/out-of-bounds misses, so each cell has exactly one home. *)

type region = {
  base : int;
  mutable cells : int array;
  mutable hi : int; (* exclusive upper offset ever touched; bounds scans *)
}

type t = {
  r_static : region; (* globals and interned strings: [0, heap_base) *)
  r_heap : region; (* [heap_base, stack_base) *)
  r_stack : region; (* [stack_base, ...) *)
  overflow : (int, cell) Hashtbl.t;
}

let unmapped_cell = 0
let undef_cell = 1
let encode v = (v lsl 2) lor 2
let decode c = c asr 2

(* Largest offset the arrays may grow to cover (cells). Past this a
   cell lives in [overflow]; correctness is unaffected. Every region
   spans far more than [region_cap] cells, so a range that fits in one
   region's window never reaches into the next region. *)
let region_cap = 1 lsl 22

let make_region base = { base; cells = [||]; hi = 0 }

let create () =
  (* The static region is based at [globals_base], not 0: offsets start
     at the first cell layout can actually place, and the never-mapped
     null page resolves to a negative offset, i.e. the overflow path. *)
  { r_static = make_region globals_base;
    r_heap = make_region heap_base;
    r_stack = make_region stack_base;
    overflow = Hashtbl.create 4 }

let region_of f a = if a >= stack_base then f.r_stack else if a >= heap_base then f.r_heap else f.r_static

let grow r needed =
  let cur = Array.length r.cells in
  let n = ref (max 64 cur) in
  while !n < needed do
    n := !n * 2
  done;
  let cells = Array.make !n unmapped_cell in
  Array.blit r.cells 0 cells 0 cur;
  r.cells <- cells

(* Cells [clone_region] copies: the touched prefix rounded up to a
   power of two, not whatever capacity growth doubling reached. *)
let clone_len r =
  if r.hi = 0 then 0
  else begin
    let n = ref 64 in
    while !n < r.hi do
      n := !n * 2
    done;
    min !n (Array.length r.cells)
  end

let clone_region r =
  if r.hi = 0 then make_region r.base
  else { base = r.base; cells = Array.sub r.cells 0 (clone_len r); hi = r.hi }

let clone f =
  { r_static = clone_region f.r_static;
    r_heap = clone_region f.r_heap;
    r_stack = clone_region f.r_stack;
    overflow = Hashtbl.copy f.overflow }

let footprint f =
  clone_len f.r_static + clone_len f.r_heap + clone_len f.r_stack + Hashtbl.length f.overflow

(* Single-cell slow paths (overflow, region-spanning ranges). *)

let set_undef_cell f a =
  let r = region_of f a in
  let off = a - r.base in
  if off >= 0 && off < region_cap then begin
    if off >= Array.length r.cells then grow r (off + 1);
    Array.unsafe_set r.cells off undef_cell;
    if off + 1 > r.hi then r.hi <- off + 1
  end
  else Hashtbl.replace f.overflow a Undef

let unmap_cell f a =
  let r = region_of f a in
  let off = a - r.base in
  if off >= 0 && off < region_cap then begin
    if off < Array.length r.cells then Array.unsafe_set r.cells off unmapped_cell
  end
  else Hashtbl.remove f.overflow a

let read_overflow f a =
  match Hashtbl.find_opt f.overflow a with
  | None -> Error Unmapped
  | Some Undef -> Error Undefined
  | Some (Val v) -> Ok v

(* ---- the public operations ------------------------------------------------ *)

let alloc f ~addr ~size =
  if size > 0 then begin
    let r = region_of f addr in
    let off = addr - r.base in
    if off >= 0 && off + size <= region_cap then begin
      if off + size > Array.length r.cells then grow r (off + size);
      Array.fill r.cells off size undef_cell;
      if off + size > r.hi then r.hi <- off + size
    end
    else
      for a = addr to addr + size - 1 do
        set_undef_cell f a
      done
  end

let dealloc f ~addr ~size =
  if size > 0 then begin
    let r = region_of f addr in
    let off = addr - r.base in
    if off >= 0 && off + size <= Array.length r.cells then Array.fill r.cells off size unmapped_cell
    else
      for a = addr to addr + size - 1 do
        unmap_cell f a
      done
  end

let read f a =
  let r = region_of f a in
  let off = a - r.base in
  if off >= 0 && off < Array.length r.cells then begin
    let c = Array.unsafe_get r.cells off in
    if c land 2 <> 0 then Ok (decode c)
    else if c = undef_cell then Error Undefined
    else read_overflow f a
  end
  else read_overflow f a

(* Raising variants for the compiled engine's hot path: no [result]
   allocation per access; the exceptions propagate to [Machine.run],
   which translates them to faults. Unlike {!read}/{!write}, these also
   classify the null page ([0, globals_base)) — checked before any
   lookup, exactly as the interpreter's checked accessors do — so the
   machine's hot path needs no address test of its own. *)

let read_miss f a =
  if a >= 0 && a < globals_base then raise Null_exn
  else
    match read_overflow f a with
    | Ok v -> v
    | Error Unmapped -> raise Unmapped_exn
    | Error Undefined -> raise Undefined_exn

let[@inline] read_exn f a =
  let r = region_of f a in
  let off = a - r.base in
  if off >= 0 && off < Array.length r.cells then begin
    let c = Array.unsafe_get r.cells off in
    if c land 2 <> 0 then decode c
    else if c = undef_cell then raise Undefined_exn
    else read_miss f a
  end
  else read_miss f a

let write f a v =
  let r = region_of f a in
  let off = a - r.base in
  if off >= 0 && off < Array.length r.cells && Array.unsafe_get r.cells off <> unmapped_cell
  then begin
    Array.unsafe_set r.cells off (encode v);
    Ok ()
  end
  else if Hashtbl.mem f.overflow a then begin
    Hashtbl.replace f.overflow a (Val v);
    Ok ()
  end
  else Error Unmapped

let[@inline] write_exn f a v =
  let r = region_of f a in
  let off = a - r.base in
  if off >= 0 && off < Array.length r.cells && Array.unsafe_get r.cells off <> unmapped_cell
  then Array.unsafe_set r.cells off (encode v)
  else if a >= 0 && a < globals_base then raise Null_exn
  else if Hashtbl.mem f.overflow a then Hashtbl.replace f.overflow a (Val v)
  else raise Unmapped_exn

(* Specialized raising accessors for addresses whose region is known at
   compile time: frame slots (always >= stack_base, through a region
   handle) and globals (always in [globals_base, heap_base)). They skip
   the region decode — and the caller skips its null-page check — on
   the hit path; array misses fall back to the generic ops, so
   overflow-resident cells stay fully supported. *)

let[@inline] read_static_exn f a =
  let r = f.r_static in
  let off = a - globals_base in
  if off >= 0 && off < Array.length r.cells then begin
    let c = Array.unsafe_get r.cells off in
    if c land 2 <> 0 then decode c
    else if c = undef_cell then raise Undefined_exn
    else read_exn f a
  end
  else read_exn f a

let[@inline] write_static_exn f a v =
  let r = f.r_static in
  let off = a - globals_base in
  if off >= 0 && off < Array.length r.cells && Array.unsafe_get r.cells off <> unmapped_cell
  then Array.unsafe_set r.cells off (encode v)
  else write_exn f a v

(* Region handles. [Machine] caches the stack region record at load
   time and reads frame slots through it, skipping the record chain
   above on every access. Region records are stable for the lifetime of
   a store — growth replaces their [cells] field, never the record — so
   a cached handle cannot dangle. *)

let stack_region f = f.r_stack

let[@inline] stack_read_exn f r a =
  let off = a - stack_base in
  if off >= 0 && off < Array.length r.cells then begin
    let c = Array.unsafe_get r.cells off in
    if c land 2 <> 0 then decode c
    else if c = undef_cell then raise Undefined_exn
    else read_exn f a
  end
  else read_exn f a

let[@inline] stack_write_exn f r a v =
  let off = a - stack_base in
  if off >= 0 && off < Array.length r.cells && Array.unsafe_get r.cells off <> unmapped_cell
  then Array.unsafe_set r.cells off (encode v)
  else write_exn f a v

let write_init f a v =
  let r = region_of f a in
  let off = a - r.base in
  if off >= 0 && off < region_cap then begin
    if off >= Array.length r.cells then grow r (off + 1);
    Array.unsafe_set r.cells off (encode v);
    if off + 1 > r.hi then r.hi <- off + 1
  end
  else Hashtbl.replace f.overflow a (Val v)

let to_alist f =
  let scan r acc =
    let acc = ref acc in
    for off = r.hi - 1 downto 0 do
      let c = Array.unsafe_get r.cells off in
      if c land 2 <> 0 then acc := (r.base + off, Some (decode c)) :: !acc
      else if c = undef_cell then acc := (r.base + off, None) :: !acc
    done;
    !acc
  in
  Hashtbl.fold
    (fun a c acc -> (a, (match c with Undef -> None | Val v -> Some v)) :: acc)
    f.overflow []
  |> scan f.r_stack |> scan f.r_heap |> scan f.r_static |> List.sort compare
