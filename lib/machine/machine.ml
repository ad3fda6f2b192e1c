open Ram

type fault =
  | Abort
  | Null_deref
  | Invalid_deref
  | Uninitialized_read
  | Div_by_zero
  | Step_limit
  | Call_depth
  | Missing_return
  | Bad_free

let fault_to_string = function
  | Abort -> "abort"
  | Null_deref -> "NULL dereference"
  | Invalid_deref -> "invalid dereference"
  | Uninitialized_read -> "read of uninitialized memory"
  | Div_by_zero -> "division by zero"
  | Step_limit -> "step limit exceeded (possible non-termination)"
  | Call_depth -> "call stack exhausted"
  | Missing_return -> "missing return value"
  | Bad_free -> "invalid free"

(* Short machine-readable names: the checkpoint codec needs a stable
   round-trippable spelling, which the human-facing strings above are
   not. *)
let fault_tag = function
  | Abort -> "abort"
  | Null_deref -> "null_deref"
  | Invalid_deref -> "invalid_deref"
  | Uninitialized_read -> "uninit_read"
  | Div_by_zero -> "div_by_zero"
  | Step_limit -> "step_limit"
  | Call_depth -> "call_depth"
  | Missing_return -> "missing_return"
  | Bad_free -> "bad_free"

let fault_of_tag = function
  | "abort" -> Some Abort
  | "null_deref" -> Some Null_deref
  | "invalid_deref" -> Some Invalid_deref
  | "uninit_read" -> Some Uninitialized_read
  | "div_by_zero" -> Some Div_by_zero
  | "step_limit" -> Some Step_limit
  | "call_depth" -> Some Call_depth
  | "missing_return" -> Some Missing_return
  | "bad_free" -> Some Bad_free
  | _ -> None

type site = { site_fn : string; site_pc : int; site_loc : Minic.Loc.t }

type outcome =
  | Halted
  | Faulted of fault * site

exception Fault_exn of fault

(* [Ihalt] in the compiled dispatch loop: normal termination expressed
   as an exception so fused sequences need no per-closure outcome
   plumbing. Never escapes [run]. *)
exception Halt_exn

module Memory = Memory

(* Memory layout (cell addresses, all well below 2^31). The bases live
   in [Memory] so the store can decode addresses into regions; they are
   re-bound here for readability. *)
let globals_base = Memory.globals_base
let heap_base = Memory.heap_base
let stack_base = Memory.stack_base

type config = {
  step_limit : int;
  stack_limit : int;
}

let default_config = { step_limit = 2_000_000; stack_limit = 1 lsl 20 }

(* Frames a run may stack before a call faults with [Call_depth]. *)
let max_call_depth = 512

(* [frame] carries the compiled code of its function so the dispatch
   loop never looks functions up mid-run; interpreter frames carry
   [[||]]. The group is mutually recursive because compiled steps
   receive the machine, the listener and the current frame. *)
type frame = {
  func : Instr.func;
  base : int;
  mutable pc : int;
  ret_dst : int option;
  saved_stack_top : int; (* restore point: frees the frame and its allocas *)
  fr_steps : cstep array;
}

and t = {
  prog : Instr.program;
  config : config;
  mem : Memory.t;
  sreg : Memory.region; (* cached stack-region handle: frame-slot
                           accesses skip the store's region decode
                           (see [Memory.stack_region]) *)
  global_addrs : (string, int) Hashtbl.t;
  string_addrs : int array;
  externals : (string, Minic.Tast.fsig) Hashtbl.t;
  library_impls : (string, t -> int list -> int) Hashtbl.t;
  malloc_blocks : (int, int) Hashtbl.t; (* block address -> size *)
  mutable frames : frame list;
  mutable call_depth : int; (* = List.length frames, maintained incrementally *)
  mutable heap_top : int;
  mutable stack_top : int;
  mutable step_count : int;
  mutable cond_count : int;
  lim : int; (* copy of [config.step_limit]: one load on the hot path *)
  (* Whether the run's listener actually observes stores/branches:
     [run] compares the hook fields against [null_listener]'s.
     Compiled code skips the (pure, effect-free) null hooks — a flag
     test instead of an indirect call on every store and branch. *)
  mutable notify_store : bool;
  mutable notify_branch : bool;
  scratch : int array; (* compiled calls marshal arguments through here
                          instead of allocating a list per call; sized
                          to the program's widest parameter list *)
  compiled : compiled option;
}

and listener = {
  on_store : t -> dst:int -> src:Instr.rexpr -> base:int -> unit;
  on_branch : t -> cond:Instr.rexpr -> base:int -> taken:bool -> site:site -> unit;
  on_external : t -> Minic.Tast.fsig -> dst:int option -> unit;
  on_library : t -> callee:string -> args:Instr.rexpr list -> base:int -> unit;
  on_entry : t -> entry:Instr.func -> base:int -> unit;
}

and cstep = t -> listener -> frame -> unit

(* Everything [load] would otherwise rebuild per machine is computed
   once at compile time: the code, the address tables, the external
   signature table, and a fully seeded initial memory image that each
   load clones (a few array copies) instead of re-placing globals and
   strings cell by cell. All of it is immutable after [compile], so
   machines — and Parallel worker domains — share it read-only. *)
and compiled = {
  cfuncs : (string, cstep array ref) Hashtbl.t;
  c_global_addrs : (string, int) Hashtbl.t;
  c_string_addrs : int array;
  c_externals : (string, Minic.Tast.fsig) Hashtbl.t;
  c_init_mem : Memory.t;
  c_max_params : int; (* widest parameter list; sizes [t.scratch] *)
}

let null_listener =
  { on_store = (fun _ ~dst:_ ~src:_ ~base:_ -> ());
    on_branch = (fun _ ~cond:_ ~base:_ ~taken:_ ~site:_ -> ());
    on_external =
      (fun t _ ~dst ->
        match dst with
        | Some d -> ignore (Memory.write t.mem d 0)
        | None -> ());
    on_library = (fun _ ~callee:_ ~args:_ ~base:_ -> ());
    on_entry = (fun _ ~entry:_ ~base:_ -> ()) }

type library_impl = t -> int list -> int

let steps t = t.step_count
let branch_count t = t.cond_count

(* Layout is a pure function of the program: the compiler folds global
   and string addresses into closures shared by every machine loaded
   from the same [Instr.program], so [load] must place data at exactly
   the addresses computed here. *)
let layout (prog : Instr.program) =
  let global_addrs = Hashtbl.create 16 in
  let next = ref globals_base in
  let placed =
    List.map
      (fun (g : Minic.Tast.tglobal) ->
        let size = Minic.Ctype.sizeof prog.structs g.gl_ty in
        let addr = !next in
        Hashtbl.replace global_addrs g.gl_name addr;
        next := !next + size;
        (g, addr, size))
      prog.globals
  in
  let string_addrs =
    Array.map
      (fun s ->
        let addr = !next in
        next := !next + String.length s + 1;
        addr)
      prog.strings
  in
  (global_addrs, string_addrs, placed)

let global_addr t name =
  match Hashtbl.find_opt t.global_addrs name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Machine.global_addr: unknown global %s" name)

(* Place globals and interned strings into [mem] at the addresses
   [layout] chose. Run per load for the interpreter; once per program
   for the compiled engine, whose loads clone the resulting image. *)
let seed_memory mem (prog : Instr.program) ~string_addrs placed =
  List.iter
    (fun ((g : Minic.Tast.tglobal), addr, size) ->
      match g.gl_init with
      | Some values ->
        (* Listed cells get their constants; the remainder is
           zero-filled, as C static storage would be. *)
        let values = Array.of_list values in
        for i = 0 to size - 1 do
          Memory.write_init mem (addr + i)
            (if i < Array.length values then Dart_util.Word32.norm values.(i) else 0)
        done
      | None ->
        (* Extern: allocated but undefined until the driver fills it. *)
        Memory.alloc mem ~addr ~size)
    placed;
  Array.iteri
    (fun i s ->
      let addr = string_addrs.(i) in
      String.iteri (fun j c -> Memory.write_init mem (addr + j) (Char.code c)) s;
      Memory.write_init mem (addr + String.length s) 0)
    prog.strings

let read_word t a = Memory.read t.mem a
let write_word t a v = Memory.write_init t.mem a (Dart_util.Word32.norm v)
let memory_snapshot t = Memory.to_alist t.mem

let alloc_heap t n =
  let addr = t.heap_top in
  Memory.alloc t.mem ~addr ~size:n;
  t.heap_top <- t.heap_top + n + 1; (* guard cell between blocks *)
  Hashtbl.replace t.malloc_blocks addr n;
  addr

(* ---- concrete evaluation --------------------------------------------------- *)

let read_checked t addr =
  if addr >= 0 && addr < globals_base then raise (Fault_exn Null_deref);
  match Memory.read t.mem addr with
  | Ok v -> v
  | Error Memory.Unmapped -> raise (Fault_exn Invalid_deref)
  | Error Memory.Undefined -> raise (Fault_exn Uninitialized_read)

let write_checked t addr v =
  if addr >= 0 && addr < globals_base then raise (Fault_exn Null_deref);
  match Memory.write t.mem addr v with
  | Ok () -> ()
  | Error _ -> raise (Fault_exn Invalid_deref)

let unop_fn (op : Minic.Ast.unop) : int -> int =
  let module W = Dart_util.Word32 in
  match op with
  | Minic.Ast.Neg -> W.neg
  | Minic.Ast.Bitnot -> W.lognot
  | Minic.Ast.Lognot -> fun v -> W.of_bool (not (W.to_bool v))

let binop_fn (op : Minic.Ast.binop) : int -> int -> int =
  let module W = Dart_util.Word32 in
  match op with
  | Minic.Ast.Add -> W.add
  | Minic.Ast.Sub -> W.sub
  | Minic.Ast.Mul -> W.mul
  | Minic.Ast.Div ->
    fun a b -> (try W.div a b with Division_by_zero -> raise (Fault_exn Div_by_zero))
  | Minic.Ast.Mod ->
    fun a b -> (try W.rem a b with Division_by_zero -> raise (Fault_exn Div_by_zero))
  | Minic.Ast.Eq -> fun a b -> W.of_bool (a = b)
  | Minic.Ast.Ne -> fun a b -> W.of_bool (a <> b)
  | Minic.Ast.Lt -> fun a b -> W.of_bool (a < b)
  | Minic.Ast.Le -> fun a b -> W.of_bool (a <= b)
  | Minic.Ast.Gt -> fun a b -> W.of_bool (a > b)
  | Minic.Ast.Ge -> fun a b -> W.of_bool (a >= b)
  | Minic.Ast.Band -> W.logand
  | Minic.Ast.Bor -> W.logor
  | Minic.Ast.Bxor -> W.logxor
  | Minic.Ast.Shl -> W.shift_left
  | Minic.Ast.Shr -> W.shift_right

let rec eval_concrete t ~base (e : Instr.rexpr) : int =
  match e with
  | Instr.Const n -> n
  | Instr.Load a -> read_checked t (eval_concrete t ~base a)
  | Instr.Addr_global g -> global_addr t g
  | Instr.Addr_local off -> base + off
  | Instr.Addr_string i -> t.string_addrs.(i)
  | Instr.Unop (op, e1) -> unop_fn op (eval_concrete t ~base e1)
  | Instr.Binop (op, a, b) ->
    let va = eval_concrete t ~base a in
    let vb = eval_concrete t ~base b in
    binop_fn op va vb

(* ---- execution -------------------------------------------------------------- *)

let current_site t =
  match t.frames with
  | [] -> { site_fn = "<no frame>"; site_pc = 0; site_loc = Minic.Loc.dummy }
  | f :: _ ->
    let locs = f.func.Instr.locs in
    let loc =
      if f.pc >= 0 && f.pc < Array.length locs then locs.(f.pc) else Minic.Loc.dummy
    in
    { site_fn = f.func.Instr.fname; site_pc = f.pc; site_loc = loc }

let push_frame t (func : Instr.func) ~ret_dst ~steps =
  if t.call_depth >= max_call_depth then raise (Fault_exn Call_depth);
  if t.stack_top + func.Instr.frame_size - stack_base > t.config.stack_limit then
    raise (Fault_exn Call_depth);
  let base = t.stack_top in
  Memory.alloc t.mem ~addr:base ~size:func.Instr.frame_size;
  let frame = { func; base; pc = 0; ret_dst; saved_stack_top = t.stack_top; fr_steps = steps } in
  t.stack_top <- t.stack_top + func.Instr.frame_size;
  t.frames <- frame :: t.frames;
  t.call_depth <- t.call_depth + 1;
  frame

let pop_frame t =
  match t.frames with
  | [] -> assert false
  | f :: rest ->
    Memory.dealloc t.mem ~addr:f.saved_stack_top ~size:(t.stack_top - f.saved_stack_top);
    t.stack_top <- f.saved_stack_top;
    t.frames <- rest;
    t.call_depth <- t.call_depth - 1;
    f

let do_alloca t size =
  if size <= 0 then 0
  else if t.stack_top + size - stack_base > t.config.stack_limit then
    (* The paper's oSIP attack hinges on alloca failing and returning
       NULL when the request exceeds the available stack space. *)
    0
  else begin
    let addr = t.stack_top in
    Memory.alloc t.mem ~addr ~size;
    t.stack_top <- t.stack_top + size;
    addr
  end

let do_malloc t size =
  if size < 0 then 0
  else if size = 0 then begin
    (* Unique non-NULL address with no cells: any dereference faults. *)
    let addr = t.heap_top in
    t.heap_top <- t.heap_top + 1;
    Hashtbl.replace t.malloc_blocks addr 0;
    addr
  end
  else alloc_heap t size

let do_free t p =
  if p <> 0 then begin
    match Hashtbl.find_opt t.malloc_blocks p with
    | None -> raise (Fault_exn Bad_free)
    | Some size ->
      Memory.dealloc t.mem ~addr:p ~size;
      Hashtbl.remove t.malloc_blocks p
  end

(* Figure 3 order: S is updated from the pre-store memory, then M is
   written — otherwise self-referential stores like [h <- *(h+2)]
   would evaluate their source against the already-updated cell. *)
let store t (listener : listener) ~dst ~src ~base v =
  listener.on_store t ~dst ~src ~base;
  write_checked t dst v

(* Compiled code goes through the raw, non-allocating memory ops;
   [Memory.Unmapped_exn]/[Undefined_exn]/[Null_exn] propagate out of
   the dispatch loop and [run] translates them to the same faults (at
   the same sites) the interpreter's checked accessors produce inline.
   The null page is classified inside [Memory]'s miss path, so the hot
   path carries no address test at all. *)

let cstore t (listener : listener) ~dst ~src ~base v =
  if t.notify_store then listener.on_store t ~dst ~src ~base;
  Memory.write_exn t.mem dst v

(* ---- the compiler ----------------------------------------------------------- *)

(* Expressions compile to value-producing closures. Subtrees made only
   of constants and pre-resolved addresses fold to [Kconst] at compile
   time, so e.g. [Load (Binop (Add, Addr_global g, Const k))] costs a
   single checked read at run time. Folding never raises: a constant
   division by zero becomes a closure raising the fault at run time,
   exactly where the interpreter would. *)
type cval =
  | Kconst of int
  | Kdyn of (t -> int -> int) (* machine -> frame base -> value *)

let cval_fn = function
  | Kconst n -> fun _ _ -> n
  | Kdyn f -> f

let rec compile_expr ~global_addrs ~string_addrs (e : Instr.rexpr) : cval =
  match e with
  | Instr.Const n -> Kconst n
  | Instr.Addr_global g ->
    (match Hashtbl.find_opt global_addrs g with
     | Some a -> Kconst a
     | None ->
       Kdyn (fun _ _ -> invalid_arg (Printf.sprintf "Machine.global_addr: unknown global %s" g)))
  | Instr.Addr_local off -> Kdyn (fun _ base -> base + off)
  | Instr.Addr_string i ->
    if i >= 0 && i < Array.length string_addrs then Kconst string_addrs.(i)
    else Kdyn (fun t _ -> t.string_addrs.(i)) (* same out-of-bounds exception as the interpreter *)
  | Instr.Load (Instr.Addr_local off) ->
    (* Frame-slot loads — the most common expression — skip the
       null-page check and region decode: [base + off >= stack_base]. *)
    Kdyn (fun t base -> Memory.stack_read_exn t.mem t.sreg (base + off))
  (* Superinstructions: frame-slot operands and pointer-offset
     dereferences collapse a nest of closure calls into one body. A
     shape is kept only while some benchmark workload spends at least
     1% of its executed instructions in it (DESIGN.md, "Compiled
     execution engine"); every other operator and operand shape takes
     the generic arms below. Order of effects (left before right, address before
     read) matches the generic path exactly. *)
  | Instr.Binop
      ( ((Minic.Ast.Add | Minic.Ast.Lt | Minic.Ast.Eq) as op),
        Instr.Load (Instr.Addr_local o1),
        Instr.Load (Instr.Addr_local o2) ) ->
    let module W = Dart_util.Word32 in
    (match op with
     | Minic.Ast.Add ->
       Kdyn
         (fun t base ->
           let a = Memory.stack_read_exn t.mem t.sreg (base + o1) in
           let b = Memory.stack_read_exn t.mem t.sreg (base + o2) in
           W.add a b)
     | Minic.Ast.Lt ->
       Kdyn
         (fun t base ->
           let a = Memory.stack_read_exn t.mem t.sreg (base + o1) in
           let b = Memory.stack_read_exn t.mem t.sreg (base + o2) in
           W.of_bool (a < b))
     | _ ->
       Kdyn
         (fun t base ->
           let a = Memory.stack_read_exn t.mem t.sreg (base + o1) in
           let b = Memory.stack_read_exn t.mem t.sreg (base + o2) in
           W.of_bool (a = b)))
  | Instr.Binop
      ( ((Minic.Ast.Lt | Minic.Ast.Eq | Minic.Ast.Ne) as op),
        Instr.Load (Instr.Addr_local o1),
        Instr.Const k ) ->
    let module W = Dart_util.Word32 in
    (match op with
     | Minic.Ast.Lt ->
       Kdyn (fun t base -> W.of_bool (Memory.stack_read_exn t.mem t.sreg (base + o1) < k))
     | Minic.Ast.Eq ->
       Kdyn (fun t base -> W.of_bool (Memory.stack_read_exn t.mem t.sreg (base + o1) = k))
     | _ -> Kdyn (fun t base -> W.of_bool (Memory.stack_read_exn t.mem t.sreg (base + o1) <> k)))
  | Instr.Binop (op, Instr.Const k, Instr.Load (Instr.Addr_local o2)) ->
    let f = binop_fn op in
    Kdyn (fun t base -> f k (Memory.stack_read_exn t.mem t.sreg (base + o2)))
  | Instr.Load
      (Instr.Binop (Minic.Ast.Add, Instr.Load (Instr.Addr_local o1), Instr.Const k)) ->
    Kdyn
      (fun t base ->
        Memory.read_exn t.mem (Dart_util.Word32.add (Memory.stack_read_exn t.mem t.sreg (base + o1)) k))
  | Instr.Load
      (Instr.Binop
         (Minic.Ast.Add, Instr.Load (Instr.Addr_local o1), Instr.Load (Instr.Addr_local o2)))
    ->
    Kdyn
      (fun t base ->
        let a = Memory.stack_read_exn t.mem t.sreg (base + o1) in
        let b = Memory.stack_read_exn t.mem t.sreg (base + o2) in
        Memory.read_exn t.mem (Dart_util.Word32.add a b))
  | Instr.Load a ->
    (match compile_expr ~global_addrs ~string_addrs a with
     | Kconst addr ->
       if addr >= globals_base && addr < heap_base then
         Kdyn (fun t _ -> Memory.read_static_exn t.mem addr)
       else Kdyn (fun t _ -> Memory.read_exn t.mem addr)
     | Kdyn fa -> Kdyn (fun t base -> Memory.read_exn t.mem (fa t base)))
  | Instr.Unop (op, e1) ->
    let f = unop_fn op in
    (match compile_expr ~global_addrs ~string_addrs e1 with
     | Kconst v -> Kconst (f v)
     | Kdyn f1 -> Kdyn (fun t base -> f (f1 t base)))
  | Instr.Binop (op, a, b) ->
    let f = binop_fn op in
    let ca = compile_expr ~global_addrs ~string_addrs a in
    let cb = compile_expr ~global_addrs ~string_addrs b in
    (match (ca, cb) with
     | Kconst va, Kconst vb ->
       (match f va vb with
        | v -> Kconst v
        | exception Fault_exn fault -> Kdyn (fun _ _ -> raise (Fault_exn fault)))
     | Kconst va, Kdyn fb -> Kdyn (fun t base -> f va (fb t base))
     | Kdyn fa, Kconst vb -> Kdyn (fun t base -> f (fa t base) vb)
     | Kdyn fa, Kdyn fb ->
       (* left-to-right, as the interpreter evaluates; the hottest
          operators get direct bodies so the op itself inlines instead
          of going through the [binop_fn] indirection. *)
       let module W = Dart_util.Word32 in
       (match op with
        | Minic.Ast.Add ->
          Kdyn
            (fun t base ->
              let va = fa t base in
              W.add va (fb t base))
        | Minic.Ast.Sub ->
          Kdyn
            (fun t base ->
              let va = fa t base in
              W.sub va (fb t base))
        | Minic.Ast.Lt ->
          Kdyn
            (fun t base ->
              let va = fa t base in
              W.of_bool (va < fb t base))
        | Minic.Ast.Eq ->
          Kdyn
            (fun t base ->
              let va = fa t base in
              W.of_bool (va = fb t base))
        | _ ->
          Kdyn
            (fun t base ->
              let va = fa t base in
              let vb = fb t base in
              f va vb)))

(* A fused sequence burns one step per member instruction, exactly as
   the dispatch loop would; past the budget it raises, with [frame.pc]
   already pointing at the instruction the interpreter would have
   stopped on. *)
let fused_step_check t =
  if t.step_count >= t.lim then raise (Fault_exn Step_limit);
  t.step_count <- t.step_count + 1

(* How many consecutive [Iassign]s one fused closure may cover. *)
let max_fuse_run = 32

(* Fused-block driver: runs members [k .. last] of a block, checking
   the step budget before each member after the first (the caller
   checked the first). The last member is invoked in tail position, so
   a control tail that direct-threads onward (see [Iif]/[Igoto]) never
   grows the OCaml stack — program loops of any iteration count run in
   constant stack space. *)
let rec run_seq (seq : cstep array) t l frame k last =
  if k >= last then (Array.unsafe_get seq k) t l frame
  else begin
    (Array.unsafe_get seq k) t l frame;
    fused_step_check t;
    run_seq seq t l frame (k + 1) last
  end

(* As [run_seq], for blocks whose entry already established that no
   member's budget check can trip ([step_count + last <= lim]): the
   per-member check reduces to the bare increment. Counting still
   advances one step per member, so a fault at member [j] observes
   exactly the count the checked path would. *)
let rec run_seq_fast (seq : cstep array) t l frame k last =
  if k >= last then (Array.unsafe_get seq k) t l frame
  else begin
    (Array.unsafe_get seq k) t l frame;
    t.step_count <- t.step_count + 1;
    run_seq_fast seq t l frame (k + 1) last
  end

let compile_func ~global_addrs ~string_addrs ~externals ~cfuncs (prog : Instr.program)
    (f : Instr.func) : cstep array =
  let code = f.Instr.code in
  let n = Array.length code in
  let ce e = cval_fn (compile_expr ~global_addrs ~string_addrs e) in
  let site_of i =
    let locs = f.Instr.locs in
    { site_fn = f.Instr.fname;
      site_pc = i;
      site_loc = (if i >= 0 && i < Array.length locs then locs.(i) else Minic.Loc.dummy) }
  in
  let compile_one i (ins : Instr.instr) : cstep =
    let next = i + 1 in
    match ins with
    | Instr.Iassign (d, s) ->
      (match d with
       | Instr.Addr_local off ->
         (* Store to a frame slot: destination is pure arithmetic and
            the region is known, so no closure and no decode. The
            common source shapes get whole-instruction bodies — no
            value-closure call at all. *)
         let module W = Dart_util.Word32 in
         (match s with
          | Instr.Const k ->
            fun t l frame ->
              let base = frame.base in
              let dst = base + off in
              if t.notify_store then l.on_store t ~dst ~src:s ~base;
              Memory.stack_write_exn t.mem t.sreg dst k;
              frame.pc <- next
          | Instr.Binop (Minic.Ast.Add, Instr.Load (Instr.Addr_local o1), Instr.Const k) ->
            fun t l frame ->
              let base = frame.base in
              let dst = base + off in
              let v = W.add (Memory.stack_read_exn t.mem t.sreg (base + o1)) k in
              if t.notify_store then l.on_store t ~dst ~src:s ~base;
              Memory.stack_write_exn t.mem t.sreg dst v;
              frame.pc <- next
          | Instr.Load
              (Instr.Binop (Minic.Ast.Add, Instr.Load (Instr.Addr_local o1), Instr.Const fo))
            ->
            (* Field load into a slot: [x = p->f]. *)
            fun t l frame ->
              let base = frame.base in
              let dst = base + off in
              let v =
                Memory.read_exn t.mem (W.add (Memory.stack_read_exn t.mem t.sreg (base + o1)) fo)
              in
              if t.notify_store then l.on_store t ~dst ~src:s ~base;
              Memory.stack_write_exn t.mem t.sreg dst v;
              frame.pc <- next
          | Instr.Binop
              ( Minic.Ast.Add,
                Instr.Load (Instr.Addr_local o1),
                Instr.Load
                  (Instr.Binop
                     ( Minic.Ast.Add,
                       Instr.Load (Instr.Addr_local o2),
                       Instr.Load (Instr.Addr_local o3) )) ) ->
            (* Accumulate an indexed element: [s = s + buf[i]] — the
               checksum/scanner idiom. Left operand first, then the
               indexed load, as the generic path would. *)
            fun t l frame ->
              let base = frame.base in
              let dst = base + off in
              let a = Memory.stack_read_exn t.mem t.sreg (base + o1) in
              let p = Memory.stack_read_exn t.mem t.sreg (base + o2) in
              let i = Memory.stack_read_exn t.mem t.sreg (base + o3) in
              let v = W.add a (Memory.read_exn t.mem (W.add p i)) in
              if t.notify_store then l.on_store t ~dst ~src:s ~base;
              Memory.stack_write_exn t.mem t.sreg dst v;
              frame.pc <- next
          | _ ->
            let cs = ce s in
            fun t l frame ->
              let base = frame.base in
              let dst = base + off in
              let v = cs t base in
              if t.notify_store then l.on_store t ~dst ~src:s ~base;
              Memory.stack_write_exn t.mem t.sreg dst v;
              frame.pc <- next)
       | Instr.Binop
           (Minic.Ast.Add, Instr.Load (Instr.Addr_local o1), Instr.Load (Instr.Addr_local o2))
         ->
         (* Indexed store: [buf[i] = e]. *)
         let module W = Dart_util.Word32 in
         let cs = ce s in
         fun t l frame ->
           let base = frame.base in
           let a = Memory.stack_read_exn t.mem t.sreg (base + o1) in
           let b = Memory.stack_read_exn t.mem t.sreg (base + o2) in
           let addr = W.add a b in
           let v = cs t base in
           if t.notify_store then l.on_store t ~dst:addr ~src:s ~base;
           Memory.write_exn t.mem addr v;
           frame.pc <- next
       | _ ->
         let cs = ce s in
         (match compile_expr ~global_addrs ~string_addrs d with
          | Kconst addr when addr >= globals_base && addr < heap_base ->
            (* Store to a global resolved at compile time. *)
            fun t l frame ->
              let base = frame.base in
              let v = cs t base in
              if t.notify_store then l.on_store t ~dst:addr ~src:s ~base;
              Memory.write_static_exn t.mem addr v;
              frame.pc <- next
          | cd ->
            let cd = cval_fn cd in
            fun t l frame ->
              let base = frame.base in
              let addr = cd t base in
              let v = cs t base in
              cstore t l ~dst:addr ~src:s ~base v;
              frame.pc <- next))
    | Instr.Iif (cond, lbl) ->
      (* Conditions take the expression path: lowering wraps every
         [if]/[while] test in [Lognot], so condition-specific shapes
         would only see [||] operands, [assert]s and [switch] cases. *)
      let cc = ce cond in
      let ctaken t base = Dart_util.Word32.to_bool (cc t base) in
      let site = site_of i in
      if lbl >= 0 && lbl < n && next < n then
        (* Direct threading: a branch transfers straight to its target's
           compiled block (via the current frame's code array) instead
           of bouncing through the dispatch loop. Branches never switch
           frames, so the loop's frame check is redundant here, and the
           step check before the tail call is exactly the one the loop
           would have performed. The tail call keeps the OCaml stack
           flat, so branch-to-branch chains of any length are safe. *)
        fun t l frame ->
          let base = frame.base in
          let taken = ctaken t base in
          t.cond_count <- t.cond_count + 1;
          if t.notify_branch then l.on_branch t ~cond ~base ~taken ~site;
          let target = if taken then lbl else next in
          frame.pc <- target;
          fused_step_check t;
          (Array.unsafe_get frame.fr_steps target) t l frame
      else
        (* An out-of-range label keeps the loop's diagnostics. *)
        fun t l frame ->
          let base = frame.base in
          let taken = ctaken t base in
          t.cond_count <- t.cond_count + 1;
          if t.notify_branch then l.on_branch t ~cond ~base ~taken ~site;
          frame.pc <- (if taken then lbl else next)
    | Instr.Igoto lbl ->
      (* Chase goto-to-goto chains at compile time; each hop still
         costs a step (a goto cycle must exhaust the budget, not
         hang). In-bounds final targets are direct-threaded like [Iif];
         out-of-range ones fall back to the loop for its diagnostics. *)
      let rec chase seen l acc =
        if l < 0 || l >= n || List.mem l seen then List.rev (l :: acc)
        else
          match code.(l) with
          | Instr.Igoto l' -> chase (l :: seen) l' (l :: acc)
          | _ -> List.rev (l :: acc)
      in
      (match chase [] lbl [] with
       | [ target ] when target >= 0 && target < n ->
         fun t l frame ->
           frame.pc <- target;
           fused_step_check t;
           (Array.unsafe_get frame.fr_steps target) t l frame
       | [ target ] -> fun _ _ frame -> frame.pc <- target
       | hops_list ->
         let hops = Array.of_list hops_list in
         let nhops = Array.length hops in
         let final = hops.(nhops - 1) in
         if final >= 0 && final < n then
           fun t l frame ->
             frame.pc <- Array.unsafe_get hops 0;
             for k = 1 to nhops - 1 do
               fused_step_check t;
               frame.pc <- Array.unsafe_get hops k
             done;
             fused_step_check t;
             (Array.unsafe_get frame.fr_steps final) t l frame
         else
           fun t _ frame ->
             frame.pc <- Array.unsafe_get hops 0;
             for k = 1 to nhops - 1 do
               fused_step_check t;
               frame.pc <- Array.unsafe_get hops k
             done)
    | Instr.Icall { dst; kind; callee; args } ->
      (* The destination's presence is a compile-time fact: each call
         kind gets a with-dst and a without-dst body, so the hot path
         never builds or matches an [option]. Order of effects matches
         the interpreter: destination address, then arguments, then the
         call. *)
      let eval_dst : t -> int -> int option =
        match dst with
        | None -> fun _ _ -> None
        | Some d ->
          let cd = ce d in
          fun t base -> Some (cd t base)
      in
      let cargs = List.map ce args in
      (match (kind : Minic.Tast.call_kind) with
       | Minic.Tast.Cbuiltin b ->
         let call_builtin : t -> int -> int =
           match (b, cargs) with
           | Minic.Tast.Bmalloc, [ ca ] -> fun t base -> do_malloc t (ca t base)
           | Minic.Tast.Balloca, [ ca ] -> fun t base -> do_alloca t (ca t base)
           | Minic.Tast.Bfree, [ ca ] ->
             fun t base ->
               do_free t (ca t base);
               0
           | Minic.Tast.Bmalloc, _ -> fun _ _ -> invalid_arg "malloc arity"
           | Minic.Tast.Balloca, _ -> fun _ _ -> invalid_arg "alloca arity"
           | Minic.Tast.Bfree, _ -> fun _ _ -> invalid_arg "free arity"
           | (Minic.Tast.Babort | Minic.Tast.Bassert | Minic.Tast.Bassume), _ ->
             (* Lowered to Iabort / branches; never reaches Icall. *)
             fun _ _ -> assert false
         in
         (match dst with
          | None ->
            fun t _ frame ->
              ignore (call_builtin t frame.base);
              frame.pc <- next
          | Some d ->
            let cd = ce d in
            fun t l frame ->
              let base = frame.base in
              let dst = cd t base in
              let result = call_builtin t base in
              cstore t l ~dst ~src:(Instr.Const result) ~base result;
              frame.pc <- next)
       | Minic.Tast.Cexternal ->
         (match Hashtbl.find_opt externals callee with
          | None ->
            fun t _ frame ->
              ignore (eval_dst t frame.base);
              invalid_arg (Printf.sprintf "external function %s has no signature" callee)
          | Some signature ->
            fun t l frame ->
              let base = frame.base in
              let dst_addr = eval_dst t base in
              (* Arguments are evaluated (for faults) and discarded:
                 external functions have no side effects on program
                 memory (paper §3.4). *)
              List.iter (fun ca -> ignore (ca t base)) cargs;
              l.on_external t signature ~dst:dst_addr;
              frame.pc <- next)
       | Minic.Tast.Clibrary ->
         (* The implementation table is per-machine, so resolution
            stays at run time. *)
         fun t l frame ->
           let base = frame.base in
           let dst_addr = eval_dst t base in
           let impl =
             match Hashtbl.find_opt t.library_impls callee with
             | Some impl -> impl
             | None ->
               invalid_arg (Printf.sprintf "library function %s has no implementation" callee)
           in
           l.on_library t ~callee ~args ~base;
           let vals = List.map (fun ca -> ca t base) cargs in
           let result = Dart_util.Word32.norm (impl t vals) in
           (match dst_addr with
            | Some d -> cstore t l ~dst:d ~src:(Instr.Const result) ~base result
            | None -> ());
           frame.pc <- next
       | Minic.Tast.Cprogram ->
         (match Instr.find_func prog callee with
          | None ->
            fun t _ frame ->
              ignore (eval_dst t frame.base);
              invalid_arg (Printf.sprintf "call to unknown function %s" callee)
          | Some func ->
            if List.compare_length_with args func.Instr.nparams <> 0 then
              fun t _ frame ->
                ignore (eval_dst t frame.base);
                invalid_arg (Printf.sprintf "arity mismatch calling %s" callee)
            else
              let srcs = Array.of_list args in
              let cargs = Array.of_list cargs in
              let nargs = Array.length srcs in
              let offsets = func.Instr.param_offsets in
              let callee_steps =
                match Hashtbl.find_opt cfuncs callee with
                | Some r -> r
                | None -> assert false (* every program function is compiled *)
              in
              (* Evaluate arguments in the caller's frame (through the
                 machine's scratch buffer — argument expressions contain
                 no calls, so no reentrancy), push, then seed the callee
                 frame. The source expression is evaluated in the
                 caller's base; on_store lets the symbolic layer track
                 arguments across the call boundary (interprocedural
                 tracing, paper §2.1). *)
              let enter =
                (* The common arities skip the scratch-buffer loop. *)
                match (srcs, cargs) with
                | [||], _ ->
                  fun t _l frame _base ret_dst ->
                    frame.pc <- next; (* return point *)
                    ignore (push_frame t func ~ret_dst ~steps:!callee_steps)
                | [| src0 |], [| ca0 |] ->
                  let off0 = offsets.(0) in
                  fun t l frame base ret_dst ->
                    let v = ca0 t base in
                    frame.pc <- next;
                    let callee_frame = push_frame t func ~ret_dst ~steps:!callee_steps in
                    let dst = callee_frame.base + off0 in
                    if t.notify_store then l.on_store t ~dst ~src:src0 ~base;
                    Memory.stack_write_exn t.mem t.sreg dst v
                | _ ->
                  fun t l frame base ret_dst ->
                    let scratch = t.scratch in
                    for k = 0 to nargs - 1 do
                      Array.unsafe_set scratch k ((Array.unsafe_get cargs k) t base)
                    done;
                    frame.pc <- next;
                    let callee_frame = push_frame t func ~ret_dst ~steps:!callee_steps in
                    for k = 0 to nargs - 1 do
                      let dst = callee_frame.base + Array.unsafe_get offsets k in
                      if t.notify_store then
                        l.on_store t ~dst ~src:(Array.unsafe_get srcs k) ~base;
                      Memory.stack_write_exn t.mem t.sreg dst (Array.unsafe_get scratch k)
                    done
              in
              (match dst with
               | None -> fun t l frame -> enter t l frame frame.base None
               | Some d ->
                 let cd = ce d in
                 fun t l frame ->
                   let base = frame.base in
                   enter t l frame base (Some (cd t base)))))
    | Instr.Ireturn e ->
      (match e with
       | None ->
         fun t _ frame ->
           (match frame.ret_dst with
            | Some _ -> raise (Fault_exn Missing_return)
            | None -> ());
           ignore (pop_frame t)
       | Some (Instr.Const k as src) ->
         fun t l frame ->
           (match frame.ret_dst with
            | Some d -> cstore t l ~dst:d ~src ~base:frame.base k
            | None -> ());
           ignore (pop_frame t)
       | Some (Instr.Load (Instr.Addr_local o) as src) ->
         fun t l frame ->
           (* Read before inspecting [ret_dst]: an undefined slot must
              fault even when the caller discards the value. *)
           let value = Memory.stack_read_exn t.mem t.sreg (frame.base + o) in
           (match frame.ret_dst with
            | Some d -> cstore t l ~dst:d ~src ~base:frame.base value
            | None -> ());
           ignore (pop_frame t)
       | Some src ->
         let cv = ce src in
         fun t l frame ->
           let value = cv t frame.base in
           (* The store (and its listener notification) must happen
              while the callee frame is still mapped: the symbolic layer
              may re-evaluate [src] in the callee's frame. *)
           (match frame.ret_dst with
            | Some d -> cstore t l ~dst:d ~src ~base:frame.base value
            | None -> ());
           ignore (pop_frame t))
    | Instr.Iabort -> fun _ _ _ -> raise (Fault_exn Abort)
    | Instr.Ihalt -> fun _ _ _ -> raise Halt_exn
  in
  let steps = Array.mapi compile_one code in
  (* Fuse straight-line blocks: a run of [Iassign]s plus, when present,
     the single instruction ending it (branch, jump, call, return,
     abort, halt) execute as one closure, re-entering the dispatch loop
     once per block instead of once per instruction. A jump landing
     anywhere in the run executes its suffix. Only assignments may be
     interior members — they always fall through and never switch
     frames; any instruction may be the tail, because control returns
     to the loop right after it. Each member burns one step, and a
     fault inside the block leaves [frame.pc] on the faulting member. *)
  let is_assign k = match code.(k) with Instr.Iassign _ -> true | _ -> false in
  let fused = Array.copy steps in
  for i = 0 to n - 1 do
    if is_assign i then begin
      let j = ref (i + 1) in
      while !j < n && is_assign !j && !j - i < max_fuse_run do incr j done;
      let stop = if !j < n && !j - i < max_fuse_run then !j + 1 else !j in
      if stop - i >= 2 then begin
        let seq = Array.sub steps i (stop - i) in
        let last = Array.length seq - 1 in
        fused.(i) <-
          (fun t l frame ->
            if t.step_count + last <= t.lim then run_seq_fast seq t l frame 0 last
            else run_seq seq t l frame 0 last)
      end
    end
  done;
  fused

(* Compile [fs] into [cfuncs] in two passes, so that mutually
   recursive functions can resolve each other: allocate every
   function's slot first, then fill the bodies. *)
let compile_funcs ~global_addrs ~string_addrs ~externals ~cfuncs prog fs =
  List.iter (fun (f : Instr.func) -> Hashtbl.replace cfuncs f.Instr.fname (ref [||])) fs;
  List.iter
    (fun (f : Instr.func) ->
      let slot = Hashtbl.find cfuncs f.Instr.fname in
      slot := compile_func ~global_addrs ~string_addrs ~externals ~cfuncs prog f)
    fs

let max_params fs = List.fold_left (fun acc f -> max acc f.Instr.nparams) 0 fs

let external_table (prog : Instr.program) =
  let externals = Hashtbl.create 8 in
  List.iter (fun (s : Minic.Tast.fsig) -> Hashtbl.replace externals s.sig_name s) prog.externals;
  externals

(* A search loads thousands of machines from the same lowered program;
   compilation happens once per [Instr.program] value. The cache is
   keyed by physical identity (programs are immutable after lowering)
   and kept in an [Atomic] so Parallel workers on other domains share
   the read-only compiled form; a lost CAS race at worst compiles
   twice. It is least recently used first out: a hit moves its entry to
   the front, so a library that every linked target derives from stays
   resident however many targets pass through. *)
let cache_capacity = 8

let compiled_cache : (Instr.program * compiled) list Atomic.t = Atomic.make []

let rec compiled_for (prog : Instr.program) : compiled =
  let rec promote () =
    let cur = Atomic.get compiled_cache in
    match cur with
    | (p, c) :: _ when p == prog -> Some c
    | _ ->
      (match List.assq_opt prog cur with
       | None -> None
       | Some c ->
         let rest = List.filter (fun (p, _) -> p != prog) cur in
         if Atomic.compare_and_set compiled_cache cur ((prog, c) :: rest) then Some c
         else promote ())
  in
  match promote () with
  | Some c -> c
  | None ->
    let c = compile prog in
    let rec publish () =
      let cur = Atomic.get compiled_cache in
      match List.assq_opt prog cur with
      | Some c' -> c' (* another domain won the race; use its copy *)
      | None ->
        let kept =
          if List.length cur >= cache_capacity then
            List.filteri (fun i _ -> i < cache_capacity - 1) cur
          else cur
        in
        if Atomic.compare_and_set compiled_cache cur ((prog, c) :: kept) then c else publish ()
    in
    publish ()

(* A linked program compiles as its base's compiled form plus its own
   functions. It shares the base's functions, globals and strings
   ([Instr.program.linked_from]), so its layout is the base's, and the
   base's closures, address tables and memory image serve it as they
   are. *)
and compile (prog : Instr.program) : compiled =
  match prog.linked_from with
  | None ->
    let global_addrs, string_addrs, placed = layout prog in
    let externals = external_table prog in
    let cfuncs : (string, cstep array ref) Hashtbl.t = Hashtbl.create 16 in
    let fs = Hashtbl.fold (fun _ f acc -> f :: acc) prog.funcs [] in
    compile_funcs ~global_addrs ~string_addrs ~externals ~cfuncs prog fs;
    let init_mem = Memory.create () in
    seed_memory init_mem prog ~string_addrs placed;
    { cfuncs;
      c_global_addrs = global_addrs;
      c_string_addrs = string_addrs;
      c_externals = externals;
      c_init_mem = init_mem;
      c_max_params = max_params fs }
  | Some base ->
    let b = compiled_for base in
    let cfuncs = Hashtbl.copy b.cfuncs in
    let externals = external_table prog in
    let fs =
      Hashtbl.fold
        (fun name f acc -> if Hashtbl.mem b.cfuncs name then acc else f :: acc)
        prog.funcs []
    in
    compile_funcs ~global_addrs:b.c_global_addrs ~string_addrs:b.c_string_addrs ~externals
      ~cfuncs prog fs;
    { b with cfuncs; c_externals = externals; c_max_params = max b.c_max_params (max_params fs) }

let precompile prog = ignore (compiled_for prog)

let load ?(config = default_config) ?(library = []) ?(compile = true) (prog : Instr.program) : t =
  let compiled = if compile then Some (compiled_for prog) else None in
  let mem, global_addrs, string_addrs, externals =
    match compiled with
    | Some c ->
      (* Everything position-dependent was computed once at compile
         time; stamping out a machine is a memory-image clone plus the
         mutable per-run state below. The shared tables are read-only. *)
      (Memory.clone c.c_init_mem, c.c_global_addrs, c.c_string_addrs, c.c_externals)
    | None ->
      let mem = Memory.create () in
      let global_addrs, string_addrs, placed = layout prog in
      seed_memory mem prog ~string_addrs placed;
      let externals = Hashtbl.create 8 in
      List.iter
        (fun (s : Minic.Tast.fsig) -> Hashtbl.replace externals s.sig_name s)
        prog.externals;
      (mem, global_addrs, string_addrs, externals)
  in
  let library_impls = Hashtbl.create 4 in
  List.iter (fun (name, impl) -> Hashtbl.replace library_impls name impl) library;
  { prog;
    config;
    mem;
    sreg = Memory.stack_region mem;
    global_addrs;
    string_addrs;
    externals;
    library_impls;
    malloc_blocks = Hashtbl.create 4;
    frames = [];
    call_depth = 0;
    heap_top = heap_base;
    stack_top = stack_base;
    step_count = 0;
    cond_count = 0;
    lim = config.step_limit;
    notify_store = true;
    notify_branch = true;
    scratch =
      (match compiled with
       | Some c when c.c_max_params > 0 -> Array.make c.c_max_params 0
       | _ -> [||]);
    compiled }

let is_compiled t =
  match t.compiled with
  | Some _ -> true
  | None -> false

let exec_call t listener frame ~dst ~kind ~callee ~args =
  let base = frame.base in
  let dst_addr = Option.map (fun d -> eval_concrete t ~base d) dst in
  match (kind : Minic.Tast.call_kind) with
  | Minic.Tast.Cbuiltin b ->
    let result =
      match b with
      | Minic.Tast.Bmalloc ->
        (match args with
         | [ a ] -> do_malloc t (eval_concrete t ~base a)
         | _ -> invalid_arg "malloc arity")
      | Minic.Tast.Balloca ->
        (match args with
         | [ a ] -> do_alloca t (eval_concrete t ~base a)
         | _ -> invalid_arg "alloca arity")
      | Minic.Tast.Bfree ->
        (match args with
         | [ a ] ->
           do_free t (eval_concrete t ~base a);
           0
         | _ -> invalid_arg "free arity")
      | Minic.Tast.Babort | Minic.Tast.Bassert | Minic.Tast.Bassume ->
        (* Lowered to Iabort / branches; never reaches Icall. *)
        assert false
    in
    (match dst_addr with
     | Some d -> store t listener ~dst:d ~src:(Instr.Const result) ~base result
     | None -> ());
    frame.pc <- frame.pc + 1
  | Minic.Tast.Cexternal ->
    let signature =
      match Hashtbl.find_opt t.externals callee with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "external function %s has no signature" callee)
    in
    (* Arguments are evaluated (for faults) and discarded: external
       functions have no side effects on program memory (paper §3.4). *)
    List.iter (fun a -> ignore (eval_concrete t ~base a)) args;
    listener.on_external t signature ~dst:dst_addr;
    frame.pc <- frame.pc + 1
  | Minic.Tast.Clibrary ->
    let impl =
      match Hashtbl.find_opt t.library_impls callee with
      | Some impl -> impl
      | None -> invalid_arg (Printf.sprintf "library function %s has no implementation" callee)
    in
    listener.on_library t ~callee ~args ~base;
    let vals = List.map (fun a -> eval_concrete t ~base a) args in
    let result = Dart_util.Word32.norm (impl t vals) in
    (match dst_addr with
     | Some d -> store t listener ~dst:d ~src:(Instr.Const result) ~base result
     | None -> ());
    frame.pc <- frame.pc + 1
  | Minic.Tast.Cprogram ->
    let func =
      match Instr.find_func t.prog callee with
      | Some f -> f
      | None -> invalid_arg (Printf.sprintf "call to unknown function %s" callee)
    in
    if List.compare_length_with args func.Instr.nparams <> 0 then
      invalid_arg (Printf.sprintf "arity mismatch calling %s" callee);
    (* Evaluate arguments in the caller's frame before pushing. *)
    let arg_values = List.map (fun a -> eval_concrete t ~base a) args in
    frame.pc <- frame.pc + 1; (* return point *)
    let callee_frame = push_frame t func ~ret_dst:dst_addr ~steps:[||] in
    let offsets = func.Instr.param_offsets in
    let rec seed i values sources =
      match (values, sources) with
      | [], [] -> ()
      | v :: values, src :: sources ->
        (* The source expression is evaluated in the caller's base;
           on_store lets the symbolic layer track arguments across the
           call boundary (interprocedural tracing, paper §2.1). *)
        store t listener ~dst:(callee_frame.base + offsets.(i)) ~src ~base v;
        seed (i + 1) values sources
      | _ -> assert false (* lengths checked above *)
    in
    seed 0 arg_values args

let step t listener =
  (* Returns [Some outcome] when the run ends. *)
  match t.frames with
  | [] -> Some Halted
  | frame :: _ ->
    if t.step_count >= t.config.step_limit then Some (Faulted (Step_limit, current_site t))
    else begin
      t.step_count <- t.step_count + 1;
      let code = frame.func.Instr.code in
      if frame.pc < 0 || frame.pc >= Array.length code then
        invalid_arg
          (Printf.sprintf "pc out of range in %s: %d" frame.func.Instr.fname frame.pc)
      else begin
        let site = current_site t in
        match code.(frame.pc) with
        | Instr.Iassign (d, s) ->
          let base = frame.base in
          let addr = eval_concrete t ~base d in
          let v = eval_concrete t ~base s in
          store t listener ~dst:addr ~src:s ~base v;
          frame.pc <- frame.pc + 1;
          None
        | Instr.Iif (cond, l) ->
          let base = frame.base in
          let v = eval_concrete t ~base cond in
          let taken = Dart_util.Word32.to_bool v in
          t.cond_count <- t.cond_count + 1;
          listener.on_branch t ~cond ~base ~taken ~site;
          frame.pc <- (if taken then l else frame.pc + 1);
          None
        | Instr.Igoto l ->
          frame.pc <- l;
          None
        | Instr.Icall { dst; kind; callee; args } ->
          exec_call t listener frame ~dst ~kind ~callee ~args;
          None
        | Instr.Ireturn e ->
          let v = Option.map (eval_concrete t ~base:frame.base) e in
          (* The store (and its listener notification) must happen
             while the callee frame is still mapped: the symbolic layer
             may re-evaluate [src] in the callee's frame. *)
          (match (frame.ret_dst, v, e) with
           | Some d, Some value, Some src ->
             store t listener ~dst:d ~src ~base:frame.base value
           | Some _, None, _ -> raise (Fault_exn Missing_return)
           | None, _, _ -> ()
           | Some _, Some _, None -> assert false);
          let _popped = pop_frame t in
          if t.frames = [] then Some Halted else None
        | Instr.Iabort -> Some (Faulted (Abort, site))
        | Instr.Ihalt -> Some Halted
      end
    end

let irun t listener =
  let rec loop () =
    match step t listener with
    | Some outcome -> outcome
    | None -> loop ()
  in
  loop ()

(* The compiled dispatch loop. Frame pushes and pops surface as a
   changed list head; the loop then switches to that frame's compiled
   code without any lookup. *)
let crun t listener (entry_frame : frame) =
  let rec loop (frame : frame) (steps : cstep array) =
    if t.step_count >= t.lim then Faulted (Step_limit, current_site t)
    else begin
      t.step_count <- t.step_count + 1;
      let pc = frame.pc in
      if pc < 0 || pc >= Array.length steps then
        invalid_arg (Printf.sprintf "pc out of range in %s: %d" frame.func.Instr.fname pc);
      (Array.unsafe_get steps pc) t listener frame;
      match t.frames with
      | [] -> Halted
      | f :: _ -> if f == frame then loop frame steps else loop f f.fr_steps
    end
  in
  loop entry_frame entry_frame.fr_steps

(* Run [f] on [t], mapping the machine's internal exceptions to the
   outcome they stand for at the current site. *)
let guard t f =
  match f () with
  | outcome -> outcome
  | exception Fault_exn f -> Faulted (f, current_site t)
  | exception Halt_exn -> Halted
  | exception Memory.Unmapped_exn -> Faulted (Invalid_deref, current_site t)
  | exception Memory.Undefined_exn -> Faulted (Uninitialized_read, current_site t)
  | exception Memory.Null_exn -> Faulted (Null_deref, current_site t)

let set_listener t listener =
  t.notify_store <- listener.on_store != null_listener.on_store;
  t.notify_branch <- listener.on_branch != null_listener.on_branch

let dispatch t listener frame =
  match t.compiled with
  | Some _ -> crun t listener frame
  | None -> irun t listener

let run ?args ?(listener = null_listener) t ~entry =
  let func =
    match Instr.find_func t.prog entry with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Machine.run: unknown entry %s" entry)
  in
  if t.frames <> [] || t.step_count > 0 then
    invalid_arg "Machine.run: machines are single-shot; load a fresh one";
  set_listener t listener;
  let entry_steps =
    match t.compiled with
    | None -> [||]
    | Some c ->
      (match Hashtbl.find_opt c.cfuncs entry with
       | Some r -> !r
       | None -> assert false (* find_func succeeded above *))
  in
  let frame = push_frame t func ~ret_dst:None ~steps:entry_steps in
  (match args with
   | Some vs when List.compare_length_with vs func.Instr.nparams <> 0 ->
     invalid_arg "Machine.run: argument count mismatch"
   | _ -> ());
  guard t (fun () ->
      (match args with
       | None -> ()
       | Some vs ->
         List.iteri
           (fun i v ->
             let dst = frame.base + func.Instr.param_offsets.(i) in
             let v = Dart_util.Word32.norm v in
             (* Seed through [store]: the listener observes pre-store
                memory (Figure 3), as for every other program write. *)
             store t listener ~dst ~src:(Instr.Const v) ~base:frame.base v)
           vs);
      listener.on_entry t ~entry:func ~base:frame.base;
      dispatch t listener frame)

(* ---- snapshots ------------------------------------------------------------- *)

(* A snapshot is a machine that never runs: its own store, heap-block
   table and frame records ([pc] is mutable), with every counter as it
   was. The compiled code, address tables and library table are
   read-only and shared; [scratch] only carries arguments within one
   call instruction, so sharing it is safe too. *)
type snapshot = t

let copy t =
  let mem = Memory.clone t.mem in
  { t with
    mem;
    sreg = Memory.stack_region mem;
    malloc_blocks = Hashtbl.copy t.malloc_blocks;
    frames = List.map (fun f -> { f with pc = f.pc }) t.frames }

let snapshot = copy
let restore = copy

let footprint t = Memory.footprint t.mem + Hashtbl.length t.malloc_blocks + List.length t.frames

(* Inside [on_external], the only effect left of the call instruction
   is [frame.pc <- next]: an external call always ends a compiled block
   (fused blocks are [Iassign] runs plus one tail, and direct-threaded
   tails are tail calls), and the interpreter's [exec_call] does the
   same. So a machine restored from a snapshot taken there continues
   exactly as the original did, once [before] has supplied the result. *)
let resume ?(listener = null_listener) t ~before =
  match t.frames with
  | [] -> invalid_arg "Machine.resume: no frame to resume"
  | frame :: _ ->
    set_listener t listener;
    guard t (fun () ->
        before t;
        frame.pc <- frame.pc + 1;
        dispatch t listener frame)
