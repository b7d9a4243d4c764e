//===-- vm/Decompiler.cpp - CompiledMethod -> source text -------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Decompiler.h"

#include <algorithm>
#include <vector>

#include "support/Assert.h"
#include "vm/Bytecode.h"

using namespace mst;

namespace {

/// Reconstructs expressions from straight-line bytecode with a symbolic
/// operand stack. Bails out (Ok=false) on anything it cannot shape.
class Reconstructor {
public:
  Reconstructor(ObjectModel &Om, Oop Method)
      : Om(Om), Method(Method),
        Lits(ObjectMemory::fetchPointer(Method, MthLiterals)),
        NumArgs(static_cast<unsigned>(
            ObjectMemory::fetchPointer(Method, MthNumArgs).smallInt())),
        NumTemps(static_cast<unsigned>(
            ObjectMemory::fetchPointer(Method, MthNumTemps).smallInt())) {
    Oop Bytes = ObjectMemory::fetchPointer(Method, MthBytecodes);
    Code = Bytes.object()->bytes();
    CodeLen = Bytes.object()->ByteLength;
    Oop Cls = ObjectMemory::fetchPointer(Method, MthClass);
    IvarNames = ObjectMemory::fetchPointer(Cls, ClsInstVarNames);
  }

  bool run(std::string &Out) {
    std::vector<std::string> Stmts;
    if (!decodeRegion(0, CodeLen, Stmts))
      return false;
    // Emit the temp declaration only for slots that are true method
    // temporaries: block parameters also live in the home frame (blue
    // book), but re-declaring them would allocate a second slot on
    // recompilation.
    Out = patternFor();
    std::string Temps;
    for (unsigned I = NumArgs; I < NumTemps; ++I)
      if (std::find(BlockParamSlots.begin(), BlockParamSlots.end(), I) ==
          BlockParamSlots.end())
        Temps += tempName(I) + " ";
    if (!Temps.empty())
      Out += "    | " + Temps + "|\n";
    for (const std::string &S : Stmts)
      Out += "    " + S + ".\n";
    return true;
  }

  /// Header for the listing fallback (which is not recompilable, so the
  /// over-inclusive temp list is purely informational there).
  std::string header() const {
    std::string H = patternFor();
    if (NumTemps > NumArgs) {
      H += "    | ";
      for (unsigned I = NumArgs; I < NumTemps; ++I)
        H += tempName(I) + " ";
      H += "|\n";
    }
    return H;
  }

private:
  std::string tempName(unsigned I) const {
    // Appends rather than "lit" + std::string: GCC 12 raises a false
    // -Wrestrict on the inlined insert(0, ...) that operator+ uses.
    if (I < NumArgs)
      return std::string("arg").append(std::to_string(I + 1));
    return std::string("t").append(std::to_string(I + 1 - NumArgs));
  }

  std::string ivarName(unsigned I) const {
    if (IvarNames != Om.nil() && I < IvarNames.object()->SlotCount)
      return ObjectModel::stringValue(IvarNames.object()->slots()[I]);
    return "ivar" + std::to_string(I + 1);
  }

  std::string patternFor() const {
    std::string Sel = ObjectModel::stringValue(
        ObjectMemory::fetchPointer(Method, MthSelector));
    if (NumArgs == 0)
      return Sel + "\n";
    if (Sel.find(':') == std::string::npos)
      return Sel + " " + tempName(0) + "\n"; // binary selector
    std::string Out;
    size_t Start = 0;
    unsigned Arg = 0;
    for (size_t I = 0; I < Sel.size(); ++I) {
      if (Sel[I] == ':') {
        Out += Sel.substr(Start, I - Start + 1) + " " + tempName(Arg++) +
               " ";
        Start = I + 1;
      }
    }
    Out += "\n";
    return Out;
  }

  std::string literalText(unsigned I) const {
    return Om.describe(Lits.object()->slots()[I]);
  }

  /// Wraps \p E in parentheses when it is not a simple operand.
  static std::string paren(const std::string &E) {
    if (E.find(' ') == std::string::npos)
      return E;
    return "(" + E + ")";
  }

  bool decodeRegion(uint32_t From, uint32_t To,
                    std::vector<std::string> &Stmts) {
    std::vector<std::string> Stack;
    uint32_t Ip = From;
    while (Ip < To) {
      Op O = static_cast<Op>(Code[Ip]);
      uint32_t Len = instructionLength(Code, Ip);
      uint32_t Next = Ip + Len;
      switch (O) {
      case Op::PushSelf:
        Stack.push_back("self");
        break;
      case Op::PushNil:
        Stack.push_back("nil");
        break;
      case Op::PushTrue:
        Stack.push_back("true");
        break;
      case Op::PushFalse:
        Stack.push_back("false");
        break;
      case Op::PushThisContext:
        Stack.push_back("thisContext");
        break;
      case Op::PushTemp:
        Stack.push_back(tempName(Code[Ip + 1]));
        break;
      case Op::PushInstVar:
        Stack.push_back(ivarName(Code[Ip + 1]));
        break;
      case Op::PushLiteral:
        Stack.push_back(literalText(Code[Ip + 1]));
        break;
      case Op::PushGlobal: {
        Oop Assoc = Lits.object()->slots()[Code[Ip + 1]];
        Stack.push_back(ObjectModel::stringValue(
            ObjectMemory::fetchPointer(Assoc, AssocKey)));
        break;
      }
      case Op::PushSmallInt:
        Stack.push_back(
            std::to_string(static_cast<int8_t>(Code[Ip + 1])));
        break;
      case Op::StoreTemp: {
        if (Stack.empty())
          return false;
        Stack.back() =
            tempName(Code[Ip + 1]) + " := " + Stack.back();
        break;
      }
      case Op::StoreInstVar: {
        if (Stack.empty())
          return false;
        Stack.back() =
            ivarName(Code[Ip + 1]) + " := " + Stack.back();
        break;
      }
      case Op::StoreGlobal: {
        if (Stack.empty())
          return false;
        Oop Assoc = Lits.object()->slots()[Code[Ip + 1]];
        Stack.back() = ObjectModel::stringValue(
                           ObjectMemory::fetchPointer(Assoc, AssocKey)) +
                       " := " + Stack.back();
        break;
      }
      case Op::Pop:
        if (Stack.empty())
          return false;
        Stmts.push_back(Stack.back());
        Stack.pop_back();
        break;
      case Op::Send:
      case Op::SendSuper: {
        unsigned Argc = Code[Ip + 2];
        Oop Sel = Lits.object()->slots()[Code[Ip + 1]];
        if (!applySend(ObjectModel::stringValue(Sel), Argc, Stack))
          return false;
        break;
      }
      case Op::SendSpecial: {
        auto S = static_cast<SpecialSelector>(Code[Ip + 1]);
        if (!applySend(specialSelectorName(S), 1, Stack))
          return false;
        break;
      }
      case Op::BlockCopy: {
        unsigned NArgs = Code[Ip + 1];
        uint16_t Skip =
            static_cast<uint16_t>(Code[Ip + 3] | (Code[Ip + 4] << 8));
        uint32_t BodyStart = Ip + 5;
        std::string Block;
        if (!decodeBlock(BodyStart, BodyStart + Skip, NArgs, Block))
          return false;
        Stack.push_back(Block);
        Next = BodyStart + Skip;
        break;
      }
      case Op::ReturnTop:
        if (Stack.empty())
          return false;
        Stmts.push_back("^" + Stack.back());
        Stack.pop_back();
        break;
      case Op::ReturnSelf:
        // The implicit trailing return is not a source statement.
        if (Next < To)
          Stmts.push_back("^self");
        break;
      case Op::BlockReturn:
        if (Stack.empty())
          return false;
        Stmts.push_back(Stack.back());
        Stack.pop_back();
        break;
      case Op::Dup:
      case Op::Jump:
      case Op::JumpIfTrue:
      case Op::JumpIfFalse:
        return false; // cascades / inlined control flow: use the listing
      }
      Ip = Next;
    }
    return Stack.empty();
  }

  bool decodeBlock(uint32_t From, uint32_t To, unsigned NArgs,
                   std::string &Out) {
    // Skip the parameter-popping prologue: NArgs pairs of StoreTemp/Pop.
    std::string Params;
    uint32_t Ip = From;
    for (unsigned I = 0; I < NArgs; ++I) {
      if (Ip + 3 > To || static_cast<Op>(Code[Ip]) != Op::StoreTemp ||
          static_cast<Op>(Code[Ip + 2]) != Op::Pop)
        return false;
      Params = std::string(":")
                   .append(tempName(Code[Ip + 1]))
                   .append(" ")
                   .append(Params);
      BlockParamSlots.push_back(Code[Ip + 1]);
      Ip += 3;
    }
    std::vector<std::string> Stmts;
    if (!decodeRegion(Ip, To, Stmts))
      return false;
    Out = "[";
    if (NArgs)
      Out.append(Params).append("| ");
    for (size_t I = 0; I < Stmts.size(); ++I) {
      if (I)
        Out += ". ";
      Out += Stmts[I];
    }
    Out += "]";
    return true;
  }

  bool applySend(const std::string &Sel, unsigned Argc,
                 std::vector<std::string> &Stack) {
    if (Stack.size() < Argc + 1)
      return false;
    std::vector<std::string> Args(Argc);
    for (unsigned I = 0; I < Argc; ++I) {
      Args[Argc - 1 - I] = Stack.back();
      Stack.pop_back();
    }
    std::string Recv = paren(Stack.back());
    Stack.pop_back();
    std::string Expr;
    if (Argc == 0) {
      Expr = Recv + " " + Sel;
    } else if (Sel.find(':') == std::string::npos) {
      Expr = Recv + " " + Sel + " " + paren(Args[0]);
    } else {
      Expr = Recv;
      size_t Start = 0;
      unsigned A = 0;
      for (size_t I = 0; I < Sel.size(); ++I) {
        if (Sel[I] == ':') {
          Expr.append(" ")
              .append(Sel, Start, I - Start + 1)
              .append(" ")
              .append(paren(Args[A++]));
          Start = I + 1;
        }
      }
    }
    Stack.push_back(Expr);
    return true;
  }

  ObjectModel &Om;
  Oop Method;
  Oop Lits;
  Oop IvarNames;
  const uint8_t *Code;
  uint32_t CodeLen;
  unsigned NumArgs;
  unsigned NumTemps;
  std::vector<unsigned> BlockParamSlots;
};

/// The fallback: a bytecode listing with literal values resolved.
std::string listingFor(ObjectModel &Om, Oop Method) {
  Oop Bytes = ObjectMemory::fetchPointer(Method, MthBytecodes);
  Oop Lits = ObjectMemory::fetchPointer(Method, MthLiterals);
  const uint8_t *Code = Bytes.object()->bytes();
  uint32_t Len = Bytes.object()->ByteLength;

  std::string Out = "\"decompiled listing\"\n";
  for (uint32_t Ip = 0; Ip < Len;) {
    Out += disassembleOne(Code, Ip);
    Op O = static_cast<Op>(Code[Ip]);
    if (O == Op::Send || O == Op::SendSuper || O == Op::PushLiteral ||
        O == Op::PushGlobal) {
      Out += "    \"";
      Out += Om.describe(Lits.object()->slots()[Code[Ip + 1]]);
      Out += "\"";
    }
    Out += '\n';
    Ip += instructionLength(Code, Ip);
  }
  return Out;
}

} // namespace

std::string mst::decompileMethod(ObjectModel &Om, Oop Method) {
  Reconstructor R(Om, Method);
  std::string Out;
  if (R.run(Out))
    return Out;
  return R.header() + listingFor(Om, Method);
}
