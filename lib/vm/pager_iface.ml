module Message = Mach_ipc.Message
module Prot = Mach_hw.Prot

type kernel_to_manager =
  | Init of { memory_object : Message.port; request : Message.port; name : Message.port }
  | Data_request of {
      memory_object : Message.port;
      request : Message.port;
      offset : int;
      length : int;
      desired_access : Prot.t;
    }
  | Data_write of { memory_object : Message.port; offset : int; data : bytes; write_id : int }
  | Data_unlock of {
      memory_object : Message.port;
      request : Message.port;
      offset : int;
      length : int;
      desired_access : Prot.t;
    }
  | Create of {
      new_memory_object : Message.port;
      request : Message.port;
      name : Message.port;
      size : int;
    }
  | Lock_completed of { memory_object : Message.port; offset : int; length : int }

type manager_to_kernel =
  | Data_provided of { offset : int; data : bytes; lock_value : Prot.t }
  | Data_lock of { offset : int; length : int; lock_value : Prot.t }
  | Flush_request of { offset : int; length : int }
  | Clean_request of { offset : int; length : int }
  | Cache of { may_cache : bool }
  | Data_unavailable of { offset : int; size : int }
  | Release_write of { write_id : int }

exception Malformed of string

(* Message ids. Kernel→manager in 21xx, manager→kernel in 22xx. *)
let id_init = 2100
let id_data_request = 2101
let id_data_write = 2102
let id_data_unlock = 2103
let id_create = 2104
let id_lock_completed = 2105
let id_data_provided = 2200
let id_data_lock = 2201
let id_flush_request = 2202
let id_clean_request = 2203
let id_cache = 2204
let id_data_unavailable = 2205
let id_release_write = 2206

let is_pager_msg (m : Message.t) =
  let id = m.header.msg_id in
  id >= 2100 && id <= 2206

let send_cap port = { Message.cap_port = port; cap_right = Message.Send_right }
let receive_cap port = { Message.cap_port = port; cap_right = Message.Receive_right }

(* Every payload is a few fixed-width fields, written straight into a
   bytes of exactly its size: the layout [Mach_util.Codec.Enc] gives
   the same calls (little-endian 64-bit ints, one byte for a protection
   or a bool), so the bytes, and [Message.inline_bytes], are the same.
   Decoders read the fields in place. *)
let[@inline] set_int b pos v = Bytes.set_int64_le b pos (Int64.of_int v)

let int1 a =
  let b = Bytes.create 8 in
  set_int b 0 a;
  Message.Data b

let int2 a c =
  let b = Bytes.create 16 in
  set_int b 0 a;
  set_int b 8 c;
  Message.Data b

(* [a], then [c], then the low byte of [u]. *)
let int_int_u8 a c u =
  let b = Bytes.create 17 in
  set_int b 0 a;
  set_int b 8 c;
  Bytes.set_uint8 b 16 (u land 0xff);
  Message.Data b

let int_u8 a u =
  let b = Bytes.create 9 in
  set_int b 0 a;
  Bytes.set_uint8 b 8 (u land 0xff);
  Message.Data b

let encode_k2m ~reply call ~dest =
  match call with
  | Init { memory_object = _; request; name } ->
    Message.make ?reply ~msg_id:id_init ~dest [ Message.Caps [ send_cap request; send_cap name ] ]
  | Data_request { memory_object = _; request; offset; length; desired_access } ->
    Message.make ?reply ~msg_id:id_data_request ~dest
      [ Message.Caps [ send_cap request ]; int_int_u8 offset length (Prot.to_int desired_access) ]
  | Data_write { memory_object = _; offset; data; write_id } ->
    Message.make ?reply ~msg_id:id_data_write ~dest [ int2 offset write_id; Message.Ool data ]
  | Data_unlock { memory_object = _; request; offset; length; desired_access } ->
    Message.make ?reply ~msg_id:id_data_unlock ~dest
      [ Message.Caps [ send_cap request ]; int_int_u8 offset length (Prot.to_int desired_access) ]
  | Create { new_memory_object; request; name; size } ->
    Message.make ?reply ~msg_id:id_create ~dest
      [
        Message.Caps [ receive_cap new_memory_object; send_cap request; send_cap name ];
        int1 size;
      ]
  | Lock_completed { memory_object = _; offset; length } ->
    Message.make ?reply ~msg_id:id_lock_completed ~dest [ int2 offset length ]

let encode_m2k call ~request =
  let dest = request in
  match call with
  | Data_provided { offset; data; lock_value } ->
    Message.make ~msg_id:id_data_provided ~dest
      [ int_u8 offset (Prot.to_int lock_value); Message.Ool data ]
  | Data_lock { offset; length; lock_value } ->
    Message.make ~msg_id:id_data_lock ~dest [ int_int_u8 offset length (Prot.to_int lock_value) ]
  | Flush_request { offset; length } ->
    Message.make ~msg_id:id_flush_request ~dest [ int2 offset length ]
  | Clean_request { offset; length } ->
    Message.make ~msg_id:id_clean_request ~dest [ int2 offset length ]
  | Cache { may_cache } ->
    let b = Bytes.make 1 (if may_cache then '\001' else '\000') in
    Message.make ~msg_id:id_cache ~dest [ Message.Data b ]
  | Data_unavailable { offset; size } ->
    Message.make ~msg_id:id_data_unavailable ~dest [ int2 offset size ]
  | Release_write { write_id } -> Message.make ~msg_id:id_release_write ~dest [ int1 write_id ]

(* The payload, which must hold at least [n] bytes; decoders read its
   fixed-width fields in place. *)
let payload m n =
  match Message.data_exn m with
  | b -> if Bytes.length b < n then raise (Malformed "truncated payload") else b
  | exception Not_found -> raise (Malformed "missing data item")

let[@inline] get_int b pos = Int64.to_int (Bytes.get_int64_le b pos)
let get_prot b pos = Prot.of_int (Bytes.get_uint8 b pos)

let first_ool m =
  match Message.ool_payloads m with
  | b :: _ -> b
  | [] -> raise (Malformed "missing out-of-line data")

let caps_exn m n =
  let caps = Message.caps m in
  if List.length caps < n then raise (Malformed "missing capabilities");
  caps

let decode_k2m (m : Message.t) =
  let dest = m.header.dest in
  let id = m.header.msg_id in
  if id = id_init then begin
    match caps_exn m 2 with
    | [ r; n ] -> Init { memory_object = dest; request = r.cap_port; name = n.cap_port }
    | _ -> raise (Malformed "pager_init: bad capabilities")
  end
  else if id = id_data_request then begin
    let b = payload m 17 in
    match caps_exn m 1 with
    | r :: _ ->
      Data_request
        { memory_object = dest; request = r.cap_port; offset = get_int b 0; length = get_int b 8;
          desired_access = get_prot b 16 }
    | [] -> raise (Malformed "pager_data_request: bad capabilities")
  end
  else if id = id_data_write then begin
    let b = payload m 16 in
    Data_write { memory_object = dest; offset = get_int b 0; data = first_ool m; write_id = get_int b 8 }
  end
  else if id = id_data_unlock then begin
    let b = payload m 17 in
    match caps_exn m 1 with
    | r :: _ ->
      Data_unlock
        { memory_object = dest; request = r.cap_port; offset = get_int b 0; length = get_int b 8;
          desired_access = get_prot b 16 }
    | [] -> raise (Malformed "pager_data_unlock: bad capabilities")
  end
  else if id = id_create then begin
    let b = payload m 8 in
    match caps_exn m 3 with
    | [ o; r; n ] ->
      Create { new_memory_object = o.cap_port; request = r.cap_port; name = n.cap_port; size = get_int b 0 }
    | _ -> raise (Malformed "pager_create: bad capabilities")
  end
  else if id = id_lock_completed then begin
    let b = payload m 16 in
    Lock_completed { memory_object = dest; offset = get_int b 0; length = get_int b 8 }
  end
  else raise (Malformed (Printf.sprintf "unknown kernel-to-manager id %d" id))

let decode_m2k (m : Message.t) =
  let id = m.header.msg_id in
  if id = id_data_provided then begin
    let b = payload m 9 in
    Data_provided { offset = get_int b 0; data = first_ool m; lock_value = get_prot b 8 }
  end
  else if id = id_data_lock then begin
    let b = payload m 17 in
    Data_lock { offset = get_int b 0; length = get_int b 8; lock_value = get_prot b 16 }
  end
  else if id = id_flush_request then begin
    let b = payload m 16 in
    Flush_request { offset = get_int b 0; length = get_int b 8 }
  end
  else if id = id_clean_request then begin
    let b = payload m 16 in
    Clean_request { offset = get_int b 0; length = get_int b 8 }
  end
  else if id = id_cache then Cache { may_cache = Bytes.get_uint8 (payload m 1) 0 <> 0 }
  else if id = id_data_unavailable then begin
    let b = payload m 16 in
    Data_unavailable { offset = get_int b 0; size = get_int b 8 }
  end
  else if id = id_release_write then Release_write { write_id = get_int (payload m 8) 0 }
  else raise (Malformed (Printf.sprintf "unknown manager-to-kernel id %d" id))
