/**
 * @file
 * Dynamic knobs: configuration parameters and their combination space.
 *
 * A knob parameter is one static configuration parameter with a finite
 * range of settings (paper "Parameter Identification", section 2). The
 * KnobSpace is the cartesian product of all parameters: each point
 * ("combination") corresponds to one way of configuring the application
 * and therefore one point in the performance/QoS trade-off space.
 */
#ifndef POWERDIAL_CORE_KNOB_H
#define POWERDIAL_CORE_KNOB_H

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace powerdial::core {

/** One configuration parameter and its admissible settings. */
struct KnobParameter
{
    std::string name;           //!< e.g. "subme", "-sm", "argv[4]".
    std::vector<double> values; //!< Admissible settings, any order.
};

/**
 * The cartesian product of a set of knob parameters.
 *
 * Combinations are indexed 0 .. combinations()-1 in row-major order
 * (the last parameter varies fastest).
 */
class KnobSpace
{
  public:
    explicit KnobSpace(std::vector<KnobParameter> params);

    /** Number of parameters. */
    std::size_t parameterCount() const { return params_.size(); }

    /** Parameter @p i. */
    const KnobParameter &parameter(std::size_t i) const;

    /** Total number of combinations (product of value counts). */
    std::size_t combinations() const { return combinations_; }

    /** Per-parameter value indices of @p combination. */
    std::vector<std::size_t> indicesOf(std::size_t combination) const;

    /** Per-parameter values of @p combination. */
    std::vector<double> valuesOf(std::size_t combination) const;

    /** Combination index from per-parameter value indices. */
    std::size_t combinationOf(const std::vector<std::size_t> &indices) const;

    /**
     * The combination whose per-parameter values equal @p values
     * (exact match). Throws if absent.
     */
    std::size_t findCombination(const std::vector<double> &values) const;

  private:
    std::vector<KnobParameter> params_;
    std::size_t combinations_;
};

/**
 * A write binding to one control variable in the application's address
 * space. The PowerDial runtime calls the setter with the recorded value
 * vector (scalars are 1-element) to move the application to a different
 * knob setting, exactly as the paper's callbacks do (section 2.1).
 */
struct ControlVariableBinding
{
    std::string name;
    std::function<void(const std::vector<double> &)> setter;
};

/**
 * The per-combination control-variable values recorded during dynamic
 * knob identification, plus the bindings to install them.
 *
 * The recorded values do not change after identification, so tables
 * share them: a copied table, or one that took another's values with
 * shareValues(), points at the same storage, and record() copies it
 * before its first write to shared values. A write into one table
 * therefore never shows in another.
 */
class KnobTable
{
  public:
    KnobTable() = default;

    /** Register a control variable binding. Order defines value order. */
    void bind(ControlVariableBinding binding);

    /**
     * Record the value of control variable @p var_index at
     * @p combination. Values may be recorded in any order.
     */
    void record(std::size_t combination, std::size_t var_index,
                std::vector<double> value);

    /**
     * Take @p source's recorded values in place of this table's own,
     * sharing their storage; the bindings stay this table's.
     */
    void shareValues(const KnobTable &source) { values_ = source.values_; }

    /** Install all recorded values for @p combination via the setters. */
    void apply(std::size_t combination) const;

    std::size_t variableCount() const { return bindings_.size(); }
    const ControlVariableBinding &binding(std::size_t i) const;

    /** Recorded value (throws if missing). */
    const std::vector<double> &value(std::size_t combination,
                                     std::size_t var_index) const;

  private:
    using Values = std::vector<std::vector<std::vector<double>>>;

    std::vector<ControlVariableBinding> bindings_;
    /** (*values_)[combination][var] — resized on demand; null until
     *  the first record(), and shared between tables (see above). */
    std::shared_ptr<Values> values_;
};

} // namespace powerdial::core

#endif // POWERDIAL_CORE_KNOB_H
