//===- transform/UnrollJam.cpp - Unroll-and-jam ----------------------------===//

#include "transform/UnrollJam.h"
#include "transform/Legality.h"
#include "transform/TransformError.h"
#include "transform/Utils.h"

using namespace eco;

namespace {

/// Produces the jammed body: statement items are replicated Factor times
/// with Var -> Var + u; loop items stay single, their bodies jammed
/// recursively (that is the "jam").
Body jamCopies(const Body &Orig, SymbolId Var, int Factor) {
  Body Out;
  for (const BodyItem &Item : Orig) {
    if (Item.isStmt()) {
      for (int U = 0; U < Factor; ++U) {
        std::unique_ptr<Stmt> Copy = Item.stmt().clone();
        if (U != 0)
          Copy->substitute(Var, AffineExpr::sym(Var) + U);
        Out.push_back(BodyItem(std::move(Copy)));
      }
      continue;
    }
    const Loop &Inner = Item.loop();
    std::unique_ptr<Loop> Jammed = std::make_unique<Loop>();
    Jammed->Var = Inner.Var;
    Jammed->Lower = Inner.Lower;
    Jammed->Upper = Inner.Upper;
    Jammed->Step = Inner.Step;
    Jammed->StepSym = Inner.StepSym;
    Jammed->Unroll = Inner.Unroll;
    Jammed->IsTileControl = Inner.IsTileControl;
    Jammed->Items = jamCopies(Inner.Items, Var, Factor);
    Jammed->Epilogue = jamCopies(Inner.Epilogue, Var, Factor);
    Out.push_back(BodyItem(std::move(Jammed)));
  }
  return Out;
}

} // namespace

void eco::unrollAndJam(LoopNest &Nest, SymbolId Var, int Factor) {
  if (Factor < 1)
    throw TransformError(TransformErrorCode::BadRequest,
                         "unroll-and-jam: factor must be positive");
  if (Factor == 1)
    return;
  std::vector<LoopLocation> Occurrences = findLoopOccurrences(Nest, Var);
  if (Occurrences.empty())
    throw TransformError(TransformErrorCode::BadRequest,
                         "unroll-and-jam: no loop with this variable");

  // Validate every occurrence before mutating any, so a rejection leaves
  // the nest intact.
  for (const LoopLocation &Loc : Occurrences) {
    Loop &L = *Loc.L;
    if (L.Unroll != 1 || !L.Epilogue.empty())
      throw TransformError(TransformErrorCode::AlreadyUnrolled,
                           "unroll-and-jam: loop already unrolled");
    if (L.hasParamStep() || L.Step != 1)
      throw TransformError(TransformErrorCode::NonUnitStep,
                           "unroll-and-jam: requires a unit-step loop");
    bool BoundUsesVar = false;
    forEachLoopIn(L.Items, [&](Loop &Inner) {
      if (Inner.Lower.uses(Var) || Inner.Upper.uses(Var))
        BoundUsesVar = true;
    });
    if (BoundUsesVar)
      throw TransformError(
          TransformErrorCode::BadRequest,
          "unroll-and-jam: inner loop bounds may not use the unrolled "
          "variable");
  }

  // Data-dependence legality: jamming moves the Var loop innermost
  // across everything nested inside it, and replicates any register
  // dataflow in the body or epilogue (rejected outright).
  std::string Reason = unrollJamLegality(Nest, Var, Factor);
  if (!Reason.empty())
    throw TransformError(TransformErrorCode::IllegalDependence, Reason);

  for (const LoopLocation &Loc : Occurrences) {
    Loop &L = *Loc.L;
    Body Jammed = jamCopies(L.Items, Var, Factor);
    L.Epilogue = std::move(L.Items);
    L.Items = std::move(Jammed);
    L.Unroll = Factor;
    L.Step = Factor;
  }
}
