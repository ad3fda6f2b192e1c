(* Reference store for the differential suite in diff_memory.ml: the
   one-Hashtbl map from addresses to cells that the interpreter ran on
   before both engines shared the flat region store. It has no layout:
   every address is one table entry, so there is no window, no overflow
   and no region to get wrong. [Machine.Memory] claims the same result
   or the same exception on every operation, so diff_memory.ml holds it
   to this one. *)

module M = Machine.Memory

type cell =
  | Undef
  | Val of int

type t = (int, cell) Hashtbl.t

let create () : t = Hashtbl.create 64
let clone (t : t) = Hashtbl.copy t

let alloc t ~addr ~size =
  for a = addr to addr + size - 1 do
    Hashtbl.replace t a Undef
  done

let dealloc t ~addr ~size =
  for a = addr to addr + size - 1 do
    Hashtbl.remove t a
  done

let read t a =
  match Hashtbl.find_opt t a with
  | None -> Error M.Unmapped
  | Some Undef -> Error M.Undefined
  | Some (Val v) -> Ok v

let write t a v =
  if Hashtbl.mem t a then begin
    Hashtbl.replace t a (Val v);
    Ok ()
  end
  else Error M.Unmapped

let write_init t a v = Hashtbl.replace t a (Val v)

(* The raising accessors classify the null page before any lookup. *)

let read_exn t a =
  if a >= 0 && a < M.globals_base then raise M.Null_exn
  else
    match Hashtbl.find_opt t a with
    | None -> raise M.Unmapped_exn
    | Some Undef -> raise M.Undefined_exn
    | Some (Val v) -> v

let write_exn t a v =
  if a >= 0 && a < M.globals_base then raise M.Null_exn
  else if Hashtbl.mem t a then Hashtbl.replace t a (Val v)
  else raise M.Unmapped_exn

let to_alist t =
  Hashtbl.fold (fun a c acc -> (a, (match c with Undef -> None | Val v -> Some v)) :: acc) t []
  |> List.sort compare
